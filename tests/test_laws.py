"""Laws of groups of class <= 3 that the package relies on, proved symbolically.

The Magnus map sends a generator g to 1 + G, in the ring of power series
with integer coefficients in non-commuting variables, and g^-1 to
1 - G + G^2 - ...  Modulo the terms of degree 4 and more it is faithful on
the free nilpotent group of class 3, because the dimension subgroups of a
free group are its lower central terms (Magnus 1937; Magnus, Karrass and
Solitar, Combinatorial Group Theory, section 5.7).  So a word is trivial in
every group of class <= 3 exactly when its truncated image is 1, and each
law below holds in all such groups at once, where the catalog tests can
only show it on the groups they build.  Each law has a false variant that
the same map must reject.

The Magnus map proves a law for class <= 3 only.  A law of every group, as
the commutator expansions that checks decides by the group verdict alone,
is certified in the free group instead: lhs rhs^-1, a word of signed
letters, freely reduces to the empty word, and a freely reduced word is
trivial in the free group only when it is empty.
"""

from functools import reduce

TOP = 4                          # terms of degree TOP and more are dropped
ONE = {(): 1}
X, Y, Z = ({(): 1, (i,): 1} for i in range(3))


def _mul(a, b):
    """The truncated product of two series, dicts from words to integers."""
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            if len(u) + len(v) < TOP:
                out[u + v] = out.get(u + v, 0) + c * d
    return {w: c for w, c in out.items() if c}


def _inv(a):
    """a = 1 + t, with t of degree >= 1, has the inverse sum of (-t)^k."""
    neg = {w: -c for w, c in a.items() if w}
    out, term = dict(ONE), ONE
    for _ in range(TOP - 1):
        term = _mul(term, neg)
        for w, c in term.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _prod(*xs):
    return reduce(_mul, xs, ONE)


def _comm(a, b):
    """[a, b] = a b a^-1 b^-1, the package's commutator."""
    return _prod(a, b, _inv(a), _inv(b))


def _dot(a, b):
    """The twisted product a.b = b^-1 a b^2."""
    return _prod(_inv(b), a, b, b)


def test_truncation_is_class_three():
    assert _mul(X, _inv(X)) == ONE
    assert _comm(_comm(X, Y), Z) != ONE                 # weight 3 survives
    assert _comm(_comm(_comm(X, Y), Z), X) == ONE       # weight 4 is gone
    assert _comm(_comm(X, Y), _comm(X, Z)) == ONE


def test_associator_formula():
    # (x.y).z = [[z^-1, y], x] . (x.(y.z)), as checks.associator_scan reads it
    lhs = _dot(_dot(X, Y), Z)
    rhs = _dot(X, _dot(Y, Z))
    assert lhs == _dot(_comm(_comm(_inv(Z), Y), X), rhs)
    assert lhs != _dot(_comm(_comm(Z, Y), X), rhs)


def test_gyration_is_conjugation():
    # (x.y).z = gyr(y,z)(x) . (y.z) with gyr(y,z)(x) = c^-1 x c and
    # c = y z^-1 y^-1 z, as gyro._conjugation_family computes it; a law of
    # every group, where the other two need class <= 3
    c = _prod(Y, _inv(Z), _inv(Y), Z)
    lhs = _dot(_dot(X, Y), Z)
    assert lhs == _dot(_prod(_inv(c), X, c), _dot(Y, Z))
    assert lhs != _dot(_prod(c, X, _inv(c)), _dot(Y, Z))


def test_inner_mapping_l_closed_form():
    # L(x,y)(z) = (y.x) \ (y.(x.z)) is z [[z,x],y], and not z [[z,y],x]:
    # (y.x) . L(x,y)(z) = y.(x.z), and left division is unique
    rhs = _dot(Y, _dot(X, Z))
    assert _dot(_dot(Y, X), _mul(Z, _comm(_comm(Z, X), Y))) == rhs
    assert _dot(_dot(Y, X), _mul(Z, _comm(_comm(Z, Y), X))) != rhs


def _rdiv(u, v):
    """Right division in the twisted loop: u / v = v u v^-2, the x with
    x.v = v^-1 (v u v^-2) v^2 = u."""
    return _prod(v, u, _inv(v), _inv(v))


def _bracket(a, b):
    """The loop commutator (a.b) / (b.a), as invariants.commutator_bracket_table
    reads it."""
    return _rdiv(_dot(a, b), _dot(b, a))


def _power(a, k):
    return _prod(*[a] * k)


def test_circ_commutator_formula():
    # circ-commutator-formula: (x.y) / (y.x) = [x,y]^3 [x,[x,y]]^2 [y,[x,y]]^2,
    # with _rdiv the two-sided inverse of right multiplication
    assert _dot(_rdiv(X, Y), Y) == X == _rdiv(_dot(X, Y), Y)
    c = _comm(X, Y)
    assert _bracket(X, Y) == _prod(_power(c, 3), _power(_comm(X, c), 2), _power(_comm(Y, c), 2))
    assert _bracket(X, Y) != _prod(_power(c, 3), _power(_comm(c, X), 2), _power(_comm(Y, c), 2))


def test_bracket_compositions_are_ninth_powers():
    # bracket-assoc-iff-ninth-power: B(B(x,y),z) = [[x,y],z]^9 and
    # B(x,B(y,z)) = [x,[y,z]]^9, so in class <= 3 the bracket is
    # associative exactly when nine_identity holds
    assert _bracket(_bracket(X, Y), Z) == _power(_comm(_comm(X, Y), Z), 9)
    assert _bracket(X, _bracket(Y, Z)) == _power(_comm(X, _comm(Y, Z)), 9)
    assert _bracket(_bracket(X, Y), Z) != _power(_comm(_comm(X, Y), Z), 3)
    assert _bracket(X, _bracket(Y, Z)) != _power(_comm(_comm(Y, Z), X), 9)


# words of the free group on x, y, z: tuples of signed letters (generator, +-1)
FX, FY, FZ = (((i, 1),) for i in range(3))


def _reduce(word):
    """The free reduction of a word: cancel each letter against an
    adjacent inverse until none is left."""
    out = []
    for g, e in word:
        if out and out[-1] == (g, -e):
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def _winv(w):
    return tuple((g, -e) for g, e in reversed(w))


def _wprod(*ws):
    return sum(ws, ())


def _wcomm(a, b):
    """[a, b] = a b a^-1 b^-1, the package's commutator, as a word."""
    return _wprod(a, b, _winv(a), _winv(b))


def _free_identity(lhs, rhs):
    return _reduce(_wprod(lhs, _winv(rhs))) == ()


def test_free_reduction():
    assert _reduce(_wprod(FX, _winv(FX))) == ()
    assert _reduce(_wcomm(FX, FX)) == ()
    assert _reduce(_wcomm(FX, FY)) == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert _free_identity(_winv(_wcomm(FX, FY)), _wcomm(FY, FX))


def test_commutator_expansions_hold_in_every_group():
    # commutator-expansion-left and -right: identities of the free group,
    # so laws of every group, whatever its class; each false variant, with
    # two factors swapped, is a nonempty reduced word
    xy, yz = _wprod(FX, FY), _wprod(FY, FZ)
    left = _wprod(_wcomm(FX, _wcomm(FY, FZ)), _wcomm(FY, FZ), _wcomm(FX, FZ))
    right = _wprod(_wcomm(FX, FY), _wcomm(FY, _wcomm(FX, FZ)), _wcomm(FX, FZ))
    assert _free_identity(_wcomm(xy, FZ), left)
    assert _free_identity(_wcomm(FX, yz), right)
    assert not _free_identity(
        _wcomm(xy, FZ), _wprod(_wcomm(FX, _wcomm(FY, FZ)), _wcomm(FX, FZ), _wcomm(FY, FZ)))
    assert not _free_identity(
        _wcomm(FX, yz), _wprod(_wcomm(FX, FY), _wcomm(FX, FZ), _wcomm(FY, _wcomm(FX, FZ))))
