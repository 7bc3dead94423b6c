import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import groups, linalg, sampling, spaces
from siegeljacobi.errors import DimensionError, DomainError

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _heis(l, m, s):
    lam = np.array([[l]])
    mu = np.array([[m]])
    return groups.HeisenbergElement(lam, mu, np.array([[s]]) - mu @ lam.T)


def test_heisenberg_identity_law():
    h = _heis(0.3, -0.7, 0.2)
    e = groups.HeisenbergElement.identity(1, 1)
    prod = h.multiply(e)
    assert np.allclose(prod.lam, h.lam) and np.allclose(prod.kappa, h.kappa)


def test_heisenberg_substitution_example():
    lam = np.array([[0.5, -0.25]])
    mu = np.array([[1.5, 2.0]])
    a = groups.HeisenbergElement(lam, np.zeros((1, 2)), np.zeros((1, 1)))
    b = groups.HeisenbergElement(np.zeros((1, 2)), mu, np.zeros((1, 1)))
    prod = a.multiply(b)
    assert np.allclose(prod.kappa, lam @ mu.T)


@settings(max_examples=30, deadline=None)
@given(*(finite for _ in range(9)))
def test_heisenberg_associativity(a1, b1, c1, a2, b2, c2, a3, b3, c3):
    h1, h2, h3 = _heis(a1, b1, c1), _heis(a2, b2, c2), _heis(a3, b3, c3)
    left = h1.multiply(h2).multiply(h3)
    right = h1.multiply(h2.multiply(h3))
    for attr in ("lam", "mu", "kappa"):
        assert np.max(np.abs(getattr(left, attr) - getattr(right, attr))) < 1e-12


def test_heisenberg_inverse_and_validity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = groups.random_heisenberg(2, 2, rng)
        assert h.is_valid()
        prod = h.multiply(h.inverse())
        assert np.max(np.abs(prod.lam)) < 1e-12
        assert np.max(np.abs(prod.kappa)) < 1e-12
        assert h.inverse().is_valid()


def test_jacobi_associativity_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g1, g2, g3 = (groups.random_jacobi(2, 1, rng, 4) for _ in range(3))
        left = g1.multiply(g2).multiply(g3)
        right = g1.multiply(g2.multiply(g3))
        assert np.max(np.abs(left.sp.mat - right.sp.mat)) < 1e-12
        assert np.max(np.abs(left.h.kappa - right.h.kappa)) < 1e-11


def test_jacobi_inverse_law():
    rng = np.random.default_rng(12)
    for n, m in ((1, 1), (2, 1), (2, 2), (3, 2)):
        e = groups.JacobiGroupElement.identity(n, m)
        for _ in range(20):
            g = groups.random_jacobi(n, m, rng, 4)
            g_inv = g.inverse()
            for prod in (g.multiply(g_inv), g_inv.multiply(g)):
                for a, b in ((prod.sp.mat, e.sp.mat), (prod.h.lam, e.h.lam),
                             (prod.h.mu, e.h.mu), (prod.h.kappa, e.h.kappa)):
                    assert np.max(np.abs(a - b)) < 1e-12
            p = sampling.random_jacobi_point(n, m, rng)
            back = groups.act_jacobi(g_inv, groups.act_jacobi(g, p))
            assert np.max(np.abs(back.omega - p.omega)) < 1e-12
            assert np.max(np.abs(back.z - p.z)) < 1e-12


def test_symplectic_closure():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = groups.random_symplectic(3, rng, 6)
        assert g.is_valid()


def test_act_siegel_examples():
    p = spaces.SiegelPoint.create(np.array([[2j]]))
    j1 = groups.inversion(1)
    moved = groups.act_siegel(j1, p)
    assert np.isclose(moved.omega[0, 0], 0.5j)
    e = groups.SymplecticElement.identity(2)
    q = spaces.SiegelPoint.create(np.array([[1j, 0.2], [0.2, 2j]]))
    fixed = groups.act_siegel(e, q)
    assert np.allclose(fixed.omega, q.omega)


def test_act_jacobi_pure_translation():
    p = spaces.JacobiPoint.create(np.array([[0.4 + 1.1j]]), np.array([[0.2 - 0.3j]]))
    lam = np.array([[0.7]])
    mu = np.array([[-0.4]])
    g = groups.JacobiGroupElement.from_heisenberg(
        groups.HeisenbergElement(lam, mu, np.zeros((1, 1))))
    moved = groups.act_jacobi(g, p)
    assert np.allclose(moved.omega, p.omega)
    assert np.allclose(moved.z, p.z + lam @ p.omega + mu)


def test_action_axioms_all_four():
    rng = np.random.default_rng(9)
    for n, m in ((1, 1), (2, 2)):
        for _ in range(15):
            pj = sampling.random_jacobi_point(n, m, rng)
            g1 = groups.random_jacobi(n, m, rng, 4)
            g2 = groups.random_jacobi(n, m, rng, 4)
            lhs = groups.act_jacobi(g1.multiply(g2), pj)
            rhs = groups.act_jacobi(g1, groups.act_jacobi(g2, pj))
            assert np.max(np.abs(lhs.omega - rhs.omega)) < 1e-10
            assert np.max(np.abs(lhs.z - rhs.z)) < 1e-10
            pd = sampling.random_jacobi_disk_point(n, m, rng)
            s1, s2 = groups.embed_star(g1), groups.embed_star(g2)
            lhs_d = groups.act_jacobi_disk(s1.multiply(s2), pd)
            rhs_d = groups.act_jacobi_disk(s1, groups.act_jacobi_disk(s2, pd))
            assert np.max(np.abs(lhs_d.w - rhs_d.w)) < 1e-10
            assert np.max(np.abs(lhs_d.eta - rhs_d.eta)) < 1e-10


def test_embedding_is_homomorphism():
    rng = np.random.default_rng(4)
    for _ in range(25):
        g1 = groups.random_jacobi(2, 1, rng, 4)
        g2 = groups.random_jacobi(2, 1, rng, 4)
        lhs = groups.embed_star(g1.multiply(g2))
        rhs = groups.embed_star(g1).multiply(groups.embed_star(g2))
        for attr in ("p", "q", "xi", "kappa"):
            assert np.max(np.abs(getattr(lhs, attr) - getattr(rhs, attr))) < 1e-10


def test_embedding_examples():
    e = groups.JacobiGroupElement.identity(2, 1)
    star = groups.embed_star(e)
    assert np.allclose(star.p, np.eye(2)) and np.allclose(star.q, 0.0)
    # sigma_n has blocks B = -I, C = I, so P = (i/2)(B - C) = -i I
    j = groups.JacobiGroupElement.from_symplectic(groups.inversion(2), 1)
    star_j = groups.embed_star(j)
    assert np.allclose(star_j.p, -1j * np.eye(2))
    assert np.allclose(star_j.q, 0.0)
    assert star_j.is_valid()
    # the symplectic form matrix itself (B = I, C = -I) maps to +i I
    form = groups.SymplecticElement(groups.symplectic_form(2))
    star_f = groups.embed_star(groups.JacobiGroupElement.from_symplectic(form, 1))
    assert np.allclose(star_f.p, 1j * np.eye(2))
    assert star_f.is_valid()


# a random element (n, m, rng) of each JSON kind
SAMPLERS = {"symplectic": lambda n, m, rng: groups.random_symplectic(n, rng),
            "heisenberg": groups.random_heisenberg,
            "jacobi": groups.random_jacobi,
            "star": lambda n, m, rng: groups.embed_star(groups.random_jacobi(n, m, rng))}


def test_element_json_round_trip():
    for kind, sample in SAMPLERS.items():
        g = sample(2, 2, np.random.default_rng(5))
        assert g.is_valid() and g.to_json()["kind"] == kind
        back = groups.element_from_json(g.to_json())
        assert back.to_json() == g.to_json()
    with pytest.raises(DomainError):
        groups.element_from_json({"kind": "mystery"})
    # one fixed element per kind and its JSON text, key order included
    sp_text = ('{"kind": "symplectic", "mat": {"rows": 2, "cols": 2, '
               '"data": [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}}')
    h_text = ('{"kind": "heisenberg", "lam": {"rows": 1, "cols": 1, "data": [[0.5, 0.0]]}, '
              '"mu": {"rows": 1, "cols": 1, "data": [[-1.0, 0.0]]}, '
              '"kappa": {"rows": 1, "cols": 1, "data": [[0.25, 0.0]]}}')
    star_text = ('{"kind": "star", "p": {"rows": 1, "cols": 1, "data": [[0.0, 1.0]]}, '
                 '"q": {"rows": 1, "cols": 1, "data": [[0.0, 0.0]]}, '
                 '"xi": {"rows": 1, "cols": 1, "data": [[0.25, -0.5]]}, '
                 '"kappa": {"rows": 1, "cols": 1, "data": [[-0.125, 0.0]]}}')
    h = groups.HeisenbergElement([[0.5]], [[-1.0]], [[0.25]])
    for g, text in ((groups.inversion(1), sp_text), (h, h_text),
                    (groups.JacobiGroupElement(groups.inversion(1), h),
                     f'{{"kind": "jacobi", "sp": {sp_text}, "h": {h_text}}}'),
                    (groups.StarGroupElement([[1j]], [[0.0]], [[0.25 - 0.5j]], [[-0.125]]),
                     star_text)):
        assert json.dumps(g.to_json()) == text
        assert json.dumps(groups.element_from_json(json.loads(text)).to_json()) == text
    # a Jacobi element's halves must be of the kinds its fields declare
    sp, h = json.loads(sp_text), json.loads(h_text)
    for first, second, named in ((h, h, "sp"), (sp, sp, "h"), (h, sp, "sp")):
        with pytest.raises(DomainError, match=f"^{named} must be a "):
            groups.element_from_json({"kind": "jacobi", "sp": first, "h": second})


def test_element_json_refuses_imaginary_real_parts():
    identity = {"kind": "symplectic", "mat": {"rows": 2, "cols": 2,
                                              "data": [[1, 0.5], [0, 0], [0, 0], [1, 0]]}}
    with pytest.raises(DomainError, match="mat has nonzero imaginary entries"):
        groups.element_from_json(identity)
    # a real part of each kind, and of both halves of a Jacobi element
    for kind, path in (("symplectic", ["mat"]), ("heisenberg", ["lam"]), ("heisenberg", ["mu"]),
                       ("heisenberg", ["kappa"]), ("star", ["kappa"]),
                       ("jacobi", ["sp", "mat"]), ("jacobi", ["h", "mu"])):
        obj = SAMPLERS[kind](2, 2, np.random.default_rng(5)).to_json()
        part = obj
        for key in path:
            part = part[key]
        part["data"][-1][1] = 1e-300
        with pytest.raises(DomainError, match=f"^{path[-1]} has nonzero imaginary entries"):
            groups.element_from_json(obj)


def test_invalid_elements_are_refused():
    mat = linalg.matrix_to_json
    bad_sp = {"kind": "symplectic", "mat": mat(np.diag([2.0, 1.0]))}
    with pytest.raises(DomainError, match="^matrix fails the symplectic relation$"):
        groups.element_from_json(bad_sp)
    bad_h = {"kind": "heisenberg", "lam": mat(np.zeros((2, 1))), "mu": mat(np.zeros((2, 1))),
             "kappa": mat([[0.0, 1.0], [0.0, 0.0]])}
    with pytest.raises(DomainError, match=r"^kappa \+ mu t\(lam\) is not symmetric$"):
        groups.element_from_json(bad_h)
    # element_from_json checks both halves first, so only a direct call
    # reaches the Jacobi element's own refusal
    with pytest.raises(DomainError, match="^invalid Jacobi group element$"):
        groups.JacobiGroupElement.create(groups.SymplecticElement(np.diag([2.0, 1.0])),
                                         groups.HeisenbergElement.identity(1, 1))
    bad_star = {"kind": "star", "p": mat([[2.0]]), "q": mat([[0.0]]), "xi": mat([[0.0]]),
                "kappa": mat([[0.0]])}
    with pytest.raises(DomainError, match="^invalid star group element$"):
        groups.element_from_json(bad_star)


def test_malformed_element_json_names_what_is_wrong():
    mat = linalg.matrix_to_json
    h = groups.HeisenbergElement([[0.5]], [[-1.0]], [[0.25]]).to_json()
    for obj, message in ((5, "^element JSON must be an object, got int$"),
                         ([1, 2], "^element JSON must be an object, got list$"),
                         ({"kind": "jacobi", "sp": 5, "h": 5},
                          "^sp must be a symplectic element, got int$"),
                         ({"kind": "jacobi", "sp": groups.inversion(1).to_json(), "h": [h]},
                          "^h must be a heisenberg element, got list$"),
                         ({"kind": "heisenberg", "lam": mat([[0.5]])},
                          "^heisenberg element JSON has no part 'mu'$"),
                         ({"kind": "symplectic"}, "^symplectic element JSON has no part 'mat'$"),
                         ({"kind": "jacobi", "sp": groups.inversion(1).to_json()},
                          "^jacobi element JSON has no part 'h'$")):
        with pytest.raises(DomainError, match=message):
            groups.element_from_json(obj)
    # a malformed matrix inside an element is named by its entry
    bad = {**h, "mu": {"rows": 1, "cols": 1, "data": [[1.0]]}}
    with pytest.raises(DimensionError, match=r"^data entry 0 is not an \[re, im\] pair"):
        groups.element_from_json(bad)


def test_translation_blocks_follow_the_linalg_symmetry_rule():
    assert np.array_equal(groups.translation([[1.0, 2.0], [2.0, 3.0]]).mat[:2, 2:],
                          [[1.0, 2.0], [2.0, 3.0]])
    # asymmetric within 1e-10 + 1e-10 max(|a|, |b|): accepted and averaged
    g = groups.translation([[100.0, 50.0], [50.0 + 5e-9, 100.0]])
    assert g.mat[0, 3] == g.mat[1, 2] == 0.5 * (100.0 + 5e-9)
    # 5e-4 at scale 100 passes np.allclose's default rtol, but not this rule
    with pytest.raises(DomainError, match="^translation block must be symmetric$"):
        groups.translation([[1.0, 100.0], [100.0 + 5e-4, 1.0]])
    with pytest.raises(DimensionError):
        groups.translation([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])


def test_generator_word_parsing():
    g = groups.parse_generator_word("t(0.5);s", 1)
    expected = groups.translation(np.array([[0.5]])).multiply(groups.inversion(1))
    assert np.allclose(g.mat, expected.mat)
    assert groups.parse_generator_word("", 2).mat.shape == (4, 4)
    with pytest.raises(DomainError):
        groups.parse_generator_word("x(1)", 1)


def test_dilation_refuses_a_singular_block():
    for alpha in ([[0.0]], [[1.0, 1.0], [1.0, 1.0]], [[1e-13]], np.ones((2, 3))):
        with pytest.raises(DomainError, match="^dilation block must be invertible n x n$"):
            groups.dilation(alpha)
    with pytest.raises(DomainError, match="invertible"):
        groups.parse_generator_word("t(0.5);g(-1)", 1)


def _reference_word(n, rng, max_word):
    """random_symplectic's word, element by element from the public generators."""
    g = groups.SymplecticElement.identity(n)
    for _ in range(int(rng.integers(0, max_word + 1))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            b = rng.uniform(-1.0, 1.0, size=(n, n))
            g = g.multiply(groups.translation(0.5 * (b + b.T)))
        elif kind == 1:
            alpha = np.eye(n) + 0.25 * rng.uniform(-1.0, 1.0, size=(n, n))
            g = g.multiply(groups.dilation(alpha))
        else:
            g = g.multiply(groups.inversion(n))
    return g


def _reference_siegel_omega(n, rng):
    """random_siegel_point's omega with a QR at every degree, n = 1 included."""
    x = rng.uniform(-1.0, 1.0, (n, n))
    x = 0.5 * (x + x.T)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    y = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
    return linalg.symmetrize(x + 1j * y)


def test_random_draws_match_the_public_generators_bit_for_bit():
    for seed in range(200):
        for n in (1, 2, 3):
            for max_word in range(7):
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert np.array_equal(groups.random_symplectic(n, ours, max_word).mat,
                                      _reference_word(n, ref, max_word).mat)
                assert np.array_equal(sampling.random_siegel_point(n, ours).omega,
                                      _reference_siegel_omega(n, ref))
                assert ours.random() == ref.random()    # the rng advanced alike
    sigma = groups.inversion(2).mat
    assert not sigma.flags.writeable and groups.inversion(2).mat is sigma


def test_generators_take_one_block():
    stack = np.stack([np.eye(2)] * 2)
    for make, name in ((groups.translation, "translation"), (groups.dilation, "dilation")):
        with pytest.raises(DimensionError, match=f"^{name} block must be one matrix, "
                                                 r"got shape \(2, 2, 2\)$"):
            make(stack)
    with pytest.raises(DimensionError, match=r"^translation block must be square, "
                                             r"got shape \(2, 3\)$"):
        groups.translation(np.ones((2, 3)))
    for make, name in ((groups.translation, "translation"), (groups.dilation, "dilation")):
        with pytest.raises(DomainError, match=f"^{name} block has nonzero imaginary entries$"):
            make(np.eye(2) + 1e-300j)
        assert np.array_equal(make(np.eye(2) + 0j).mat, make(np.eye(2)).mat)
    assert groups.translation(0.5).mat.shape == groups.dilation(2.0).mat.shape == (2, 2)


def test_embedded_sl2_reads_one_real_two_by_two_matrix():
    s = groups.embedded_sl2([[0.0, -1.0], [1.0, 0.0]], 2, 1)
    assert np.array_equal(s.mat, groups.embedded_sl2(np.array([[0, -1], [1, 0]]), 2, 1).mat)
    assert s.mat[1, 3] == -1.0 and s.mat[3, 1] == 1.0 and s.mat[0, 0] == s.mat[2, 2] == 1.0
    refusal = r"^SL\(2, R\) matrix must be "
    for bad, shape in ((np.eye(3), r"2 x 2, got shape \(3, 3\)"),
                       ([1.0, 0.0, 0.0, 1.0], r"one matrix, got shape \(4,\)"),
                       (np.stack([np.eye(2)] * 2), r"one matrix, got shape \(2, 2, 2\)"),
                       (1.0, r"2 x 2, got shape \(1, 1\)"),
                       ([[1.0, 0.0], [0.0]], "one matrix, got ragged rows")):
        with pytest.raises(DimensionError, match=f"{refusal}{shape}$"):
            groups.embedded_sl2(bad, 2, 0)
    # determinant 1 within 1e-10, and a slot in 0..n-1
    with pytest.raises(DomainError, match=r"^SL\(2, R\) matrix must have determinant 1$"):
        groups.embedded_sl2([[2.0, 0.0], [0.0, 2.0]], 2, 0)
    for slot in (-1, 2):
        with pytest.raises(DimensionError, match=f"^slot {slot} is outside 0..1$"):
            groups.embedded_sl2([[0.0, -1.0], [1.0, 0.0]], 2, slot)
    # a complex entry is refused by name, a Python complex as a numpy one
    for bad in ([[1 + 1j, 0.0], [0.0, 1.0]], np.array([[1.0, 0.0], [0.5j, 1.0]])):
        with pytest.raises(DomainError, match=r"^SL\(2, R\) matrix has nonzero imaginary entries$"):
            groups.embedded_sl2(bad, 2, 0)

