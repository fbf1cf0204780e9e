"""The paper's identities, graph queries and reference matrices that the
package does not use at run time, as plain functions of a graph ``g``, a
law ``law`` or reduced parameters ``params``.  The tests check the package
against them.  They take only the tests' own inputs, so they validate no
arguments and cap no sizes."""

import functools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import scipy.linalg

from spiderwalk.errors import ConvergenceFailureError, InvalidParamsError
from spiderwalk.meixner import _rule, quadrature_nodes

#: Largest residual |T_N v - lambda v| accepted for an eigenpair of T_N.
RESIDUAL_TOL = 1e-10


class BoundaryVertexError(ValueError):
    """The vertex lies on the truncation boundary."""


class OutOfSupportError(ValueError):
    """A density evaluation point lies outside the support interval."""


class OutOfDomainError(ValueError):
    """A closed form was evaluated outside its validity domain."""


# -- graph ---------------------------------------------------------------------

class CSRGraph:
    """A truncated spidernet as CSR adjacency and a half-edge index, built
    by sorting: the reference wiring that the block kernel is checked
    against.

    ``adj_ptr``/``adj``
        CSR adjacency; the neighbours of vertex ``u`` are
        ``adj[adj_ptr[u]:adj_ptr[u+1]]``, sorted ascending.
    ``he_src``/``he_dst``
        Endpoint vertices of each half-edge (ordered pair).  Half-edge k is
        the k-th pair in lexicographic (src, dst) order.
    ``reversal``
        Permutation with ``(he_src[reversal[k]], he_dst[reversal[k]]) ==
        (he_dst[k], he_src[k])``; an involution.
    """

    def __init__(self, params, radius, sizes, offsets, degrees, adj_ptr, adj):
        self.params = params
        self.radius = radius
        self.stratum_sizes = sizes            # sizes[j] = |V_j|
        self.stratum_offsets = offsets        # offsets[j] = first vid of V_j
        self.degrees = degrees
        self.adj_ptr = adj_ptr
        self.adj = adj
        self.num_vertices = int(offsets[-1])
        self.num_half_edges = int(adj_ptr[-1])
        self.vertex_stratum = np.repeat(np.arange(radius + 1), sizes)
        self.he_src = np.repeat(np.arange(self.num_vertices), degrees)
        self.he_dst = adj
        # Per-vertex neighbour lists are ascending and strata are laid out
        # consecutively, so the half-edge order is lexicographic in
        # (src, dst); sorting by (dst, src) is then exactly the reversal map.
        self.reversal = np.lexsort((self.he_src, self.he_dst))
        for array in (sizes, offsets, degrees, adj_ptr, adj, self.vertex_stratum,
                      self.he_src, self.reversal):
            array.flags.writeable = False


def csr_graph(g):
    """The CSR graph of the package's graph ``g``: the same spidernet,
    radius and half-edge order, wired by sorting each stratum's rows."""
    params, radius = g.params, g.radius
    a, c = params.a, params.c
    m = params.intra_degree
    sizes = np.array(g.stratum_sizes, dtype=np.int64)
    degrees = np.repeat(np.array(g.stratum_degrees, dtype=np.int64), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    adj_ptr = np.concatenate(([0], np.cumsum(degrees)))
    adj = np.empty(int(adj_ptr[-1]), dtype=np.int64)

    if radius >= 1:
        adj[adj_ptr[0]:adj_ptr[1]] = offsets[1] + np.arange(a)

    half = m // 2
    intra_offs = list(range(1, half + 1))
    for j in range(1, radius + 1):
        s = int(sizes[j])
        ids = np.arange(s)
        cols = []
        if j == 1:
            cols.append(np.zeros((s, 1), dtype=np.int64))
        else:
            cols.append((offsets[j - 1] + ids // c)[:, None])
        if m > 0:
            offs = np.array(intra_offs + [s - k for k in intra_offs]
                            + ([s // 2] if m % 2 == 1 else []), dtype=np.int64)
            intra = np.sort((ids[:, None] + offs[None, :]) % s, axis=1)
            cols.append(offsets[j] + intra)
        if j < radius:
            cols.append(offsets[j + 1] + (c * ids[:, None] + np.arange(c)[None, :]))
        block = np.concatenate(cols, axis=1)
        adj[adj_ptr[offsets[j]]:adj_ptr[offsets[j + 1]]] = block.ravel()

    return CSRGraph(params, radius, sizes, offsets, degrees, adj_ptr, adj)


def csr_step(h, state):
    """One step U = SC of the walk on the CSR graph ``h``: each vertex's
    half-edges summed by ``np.add.reduceat``, times 2/deg, minus the state,
    then gathered through ``reversal``.  The block kernel takes the same
    steps bit for bit."""
    sums = np.add.reduceat(state, h.adj_ptr[:-1]) * (2.0 / h.degrees)
    return (sums[h.he_src] - state)[h.reversal]


def is_tree(sp):
    """S(a, b, c) is a tree exactly when c = b - 1."""
    return sp.c == sp.b - 1


def vertex_id(g, j, i):
    """Global id of the i-th vertex of stratum j."""
    if not (0 <= j <= g.radius and 0 <= i < g.stratum_sizes[j]):
        raise InvalidParamsError(f"no vertex ({j}, {i}) at radius {g.radius}")
    return int(g.stratum_offsets[j] + i)


def vertex_address(g, vid):
    j = int(g.vertex_stratum[vid])
    return j, int(vid - g.stratum_offsets[j])


def neighbors(g, vid):
    return g.adj[g.adj_ptr[vid]:g.adj_ptr[vid + 1]]


def stratum_vertices(g, j):
    return np.arange(g.stratum_offsets[j], g.stratum_offsets[j + 1])


def half_edge_index(g, u, v):
    block = neighbors(g, u)
    pos = int(np.searchsorted(block, v))
    if pos >= len(block) or block[pos] != v:
        raise InvalidParamsError(f"({u}, {v}) is not an edge")
    return int(g.adj_ptr[u] + pos)


def omega(g, u, direction):
    """omega_+(u) = c, omega_-(u) = 1 and omega_o(u) = b - c - 1 off the
    root, and omega_+(o) = a, for ``direction`` "+", "-" or "o"."""
    if direction not in ("+", "-", "o"):
        raise InvalidParamsError(f"direction must be '+', '-' or 'o', got {direction!r}")
    j = int(g.vertex_stratum[u])
    if j == g.radius:
        raise BoundaryVertexError(f"vertex {u} lies on the truncation boundary")
    want = {"+": j + 1, "-": j - 1, "o": j}[direction]
    return int(np.count_nonzero(g.vertex_stratum[neighbors(g, u)] == want))


def rotation_permutation(g):
    """Rotating stratum 1 by one step, lifted through the parent map,
    shifts stratum j by c**(j-1): an automorphism fixing the root."""
    perm = np.zeros(g.num_vertices, dtype=np.int64)
    for j in range(1, g.radius + 1):
        s, lo = int(g.stratum_sizes[j]), int(g.stratum_offsets[j])
        perm[lo:lo + s] = lo + (np.arange(s) + g.params.c ** (j - 1)) % s
    return perm


def stratum_bound(sp, l):
    """The paper's exponential lower bound on the time-averaged probability
    of stratum V_l, l >= 1, of a localizing S(a, b, c), as a Fraction:

        liminf (1/N) sum P(X_n in V_l)  >=  (b/2c) w^2 (c/(b-c)^2)^l,

    w = ((b-c)^2 - c) / ((b-c)(b-c+1)), the atom's mass."""
    b, c = sp.b, sp.c
    w = Fraction((b - c) ** 2 - c, (b - c) * (b - c + 1))
    return Fraction(b, 2 * c) * w * w * Fraction(c, (b - c) ** 2) ** l


def vertex_bound(sp, l):
    """The bound on one vertex u of stratum V_l, l >= 1,

        liminf (1/N) sum P(X_n = u)  >=  (b/2a) w^2 (1/(b-c)^2)^l:

    the stratum bound over |V_l| = a c^(l-1), since the walk is rotationally
    symmetric."""
    return float(stratum_bound(sp, l) / (sp.a * sp.c ** (l - 1)))


def cesaro_limit(sp, l):
    """The exact time-averaged probability of stratum V_l of a localizing
    S(a, b, c), as a Fraction:

        lim (1/N) sum_{n<N} P(X_n in V_l)
            = ((b-c+1)^2 + c - 1)/(2c) w^2 (c/(b-c)^2)^l,   l >= 1,

    and w^2/2 at l = 0.  The eigenvectors of the reduced walk at the atom's
    e^{+-i theta} are geometric over the strata, with ratio -sqrt(c)/(b-c),
    so every stratum l >= 1 holds the same multiple ((b-c+1)^2 + c - 1)/b
    of its Psi_l part, the stratum bound (b/2c) w^2 (c/(b-c)^2)^l."""
    b, c = sp.b, sp.c
    w = Fraction((b - c) ** 2 - c, (b - c) * (b - c + 1))
    if l == 0:
        return w * w / 2
    return Fraction((b - c + 1) ** 2 + c - 1, 2 * c) * w * w * Fraction(c, (b - c) ** 2) ** l


def exact_stratum_rows(sp, steps, strata):
    """P(X_t in V_l) for t = 0 .. steps and l = 0 .. strata, as Fractions,
    for the walk on the infinite S(a, b, c) from the isotropic root state.

    The walk stays on class-constant vectors: one value each, F_n, I_n and
    B_n, on the forward, intra and backward half-edges leaving stratum n.
    Scaled by sqrt(a) b^t after t steps they are integers.  The coin takes
    each v to 2 (c F_n + m I_n + B_n) - b v, and the root's F_0 to b F_0;
    the shift sets F_n to the coined B_{n+1} and B_n to the coined F_{n-1},
    and keeps I_n.  Stratum l >= 1 holds a c^(l-1) vertices, so
    P(X_t in V_l) = c^(l-1) (c F_l^2 + m I_l^2 + B_l^2) / b^(2t), and the
    root's is F_0^2 / b^(2t)."""
    b, c, m = sp.b, sp.c, sp.intra_degree
    size = max(steps, strata) + 2          # strata > t hold nothing at step t
    F, I, B = [1] + [0] * (size - 1), [0] * size, [0] * size
    rows = []
    for t in range(steps + 1):
        if t:
            sums = [2 * (c * f + m * i + k) for f, i, k in zip(F, I, B)]
            coined_F = [b * F[0]] + [s - b * v for s, v in zip(sums[1:], F[1:])]
            coined_I = [0] + [s - b * v for s, v in zip(sums[1:], I[1:])]
            coined_B = [0] + [s - b * v for s, v in zip(sums[1:], B[1:])]
            F, I, B = coined_B[1:] + [0], coined_I, [0] + coined_F[:-1]
        den = b ** (2 * t)
        rows.append([Fraction(F[0] ** 2, den)]
                    + [Fraction(c ** (l - 1) * (c * F[l] ** 2 + m * I[l] ** 2 + B[l] ** 2), den)
                       for l in range(1, strata + 1)])
    return rows


def half_edge_permutation(g, vertex_perm):
    """(u, v) -> (perm[u], perm[v]); raises unless perm is an automorphism."""
    nv = np.int64(g.num_vertices)
    keys = g.he_src * nv + g.he_dst             # sorted: half-edges are lexicographic
    new_keys = vertex_perm[g.he_src] * nv + vertex_perm[g.he_dst]
    out = np.searchsorted(keys, new_keys)
    if np.any(out >= g.num_half_edges) or np.any(keys[out] != new_keys):
        raise InvalidParamsError("vertex permutation is not an automorphism")
    return out


# -- free Meixner laws ---------------------------------------------------------

#: A free Meixner law by its Jacobi data: squared off-diagonal
#: (omega1, omega, omega, ...) and diagonal (0, alpha, alpha, ...).  The
#: walk law of (p, q, r) is (q, pq, r); the oracles below also take laws that
#: no walk produces, such as the semicircle (1, 1, 0).
JacobiLaw = namedtuple("JacobiLaw", "omega1 omega alpha")


def jacobi_law(law):
    """The Jacobi data of ``law``: a JacobiLaw as it is, a walk law as (q, pq, r)."""
    if isinstance(law, JacobiLaw):
        return law
    return JacobiLaw(law.q, law.p * law.q, law.r)


def support(law):
    """[alpha - 2 sqrt(omega), alpha + 2 sqrt(omega)]."""
    law = jacobi_law(law)
    h = 2.0 * np.sqrt(law.omega)
    return (law.alpha - h, law.alpha + h)


def denominator(law, x):
    """D(x) = (omega - omega1) x^2 + omega1 alpha x + omega1^2."""
    o1, om, al = jacobi_law(law)
    return (om - o1) * x * x + o1 * al * x + o1 * o1


def density(law, x):
    """rho(x) = (omega1 / 2 pi) sqrt(4 omega - (x - alpha)^2) / D(x) on the
    support (1e-12 slack at the edges)."""
    law = jacobi_law(law)
    x = np.asarray(x, dtype=float)
    lo, hi = support(law)
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise OutOfSupportError(f"point outside the support [{lo}, {hi}]")
    radicand = np.maximum(4.0 * law.omega - (x - law.alpha) ** 2, 0.0)
    return (law.omega1 / (2.0 * np.pi)) * np.sqrt(radicand) / denominator(law, x)


def chebyshev_amplitudes(pqr, l, m, nmax):
    """<e_l, T_n(J) e_m>, n <= nmax, for the Jacobi matrix J of the walk law
    of the exact ``pqr`` (diagonal 0, r, r, ...; off-diagonal sqrt(q),
    sqrt(pq), ...), by the Chebyshev recurrence in extended precision."""
    p, q, r = (np.longdouble(v.numerator) / np.longdouble(v.denominator) for v in pqr)
    size = nmax + max(l, m) + 2
    diag = np.full(size, r)
    diag[0] = 0
    off = np.full(size - 1, np.sqrt(p * q))
    off[0] = np.sqrt(q)

    def apply(v):
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    prev = np.zeros(size, dtype=np.longdouble)
    prev[m] = 1
    cur = apply(prev)
    out = [prev[l], cur[l]]
    for _ in range(nmax - 1):
        prev, cur = cur, 2 * apply(cur) - prev
        out.append(cur[l])
    return np.array(out[:nmax + 1], dtype=float)


def poly_at_atom(law, n):
    """Closed-form p_n at xi = -q / (1 - p), in both regimes of a walk law:

        p_n(xi) = (xi / sqrt(q)) (xi sqrt(pq) / q)^(n-1),   n >= 1.

    With an atom it is the minimal solution of the three-term recurrence
    there (Gautschi, SIAM Rev. 9 (1967) 24-82), |xi sqrt(pq) / q| < 1."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    xi, q = law.atom_location, law.q
    return (xi / np.sqrt(q)) * (xi * np.sqrt(law.p * q) / q) ** (n - 1) if n else 1.0


def asymptotic_amplitude(law, l, n):
    """The non-decaying part of <Psi_l, U^n Psi_0>, the atom's term
    w p_l(xi) cos(n theta~) with xi = cos(theta~): 0 without an atom, where
    the law's mass w is 0."""
    xi = law.atom_location
    return law.atom_mass * poly_at_atom(law, l) * float(np.cos(n * np.arccos(xi)))


def integrate(law, f, degree):
    """Integral of f against a walk law, f elementwise on float arrays and a
    polynomial of degree at most ``degree``: the package's midpoint rule in
    the band angle with its two pole nodes at 1 and xi, the atom's mass
    added at xi, for polynomials that no command integrates."""
    nodes = quadrature_nodes(degree)
    x, _, weight, ((a_1, g_1), (a_xi, g_xi)) = _rule(law, nodes)
    f_1, f_xi = f(np.array([1.0, law.atom_location])).tolist()
    return (float((f(x) * weight).sum()) + g_1 * math.exp(-2 * nodes * a_1) * f_1
            + (g_xi * math.exp(-2 * nodes * a_xi) + law.atom_mass) * f_xi)


def chebyshev_U(n, x):
    """U_n(cos t) = sin((n+1)t) / sin t; U_{n+1} = 2x U_n - U_{n-1} from
    U_{-2} = -1, U_{-1} = 0."""
    if n < -1:
        raise OutOfDomainError("U_n is defined for n >= -1")
    x = np.asarray(x, dtype=float)
    prev, cur = -np.ones_like(x), np.zeros_like(x)
    for _ in range(n + 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def orth_poly_recurrence(law, n, x):
    """P_0 = 1, P_1 = x, x P_k = P_{k+1} + alpha P_k + omega_k P_{k-1},
    with omega_1 = omega1 and omega_k = omega afterwards."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    law = jacobi_law(law)
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, (x - law.alpha) * cur - (law.omega1 if k == 1 else law.omega) * prev
    return prev if n == 0 else cur


def orthonormal_sequence(law, nmax, x):
    """p_0 .. p_nmax at x, shape (nmax + 1, len(x)): the monic P_k of
    :func:`orth_poly_recurrence` over sqrt(omega1 omega^(k-1))."""
    law = jacobi_law(law)
    monic = np.empty((nmax + 1, len(x)))
    monic[0] = 1.0
    if nmax >= 1:
        monic[1] = x
    for k in range(1, nmax):
        om = law.omega1 if k == 1 else law.omega
        monic[k + 1] = (x - law.alpha) * monic[k] - om * monic[k - 1]
    scales = np.ones(nmax + 1)
    scales[1:] = np.sqrt(law.omega1 * law.omega ** (np.arange(1, nmax + 1) - 1.0))
    return monic / scales[:, None]


def orth_poly_closed_cheb(law, n, x):
    """P_n = om^{n/2} W_n + alpha om^{(n-1)/2} W_{n-1}
    + (om - om1) om^{(n-2)/2} W_{n-2} for n >= 2 and all real x, where
    W_k = U_k((x - alpha) / (2 sqrt(om)))."""
    if n < 2:
        return orth_poly_recurrence(law, n, x)
    o1, om, al = jacobi_law(law)
    y = (np.asarray(x, dtype=float) - al) / (2.0 * np.sqrt(om))
    return (om ** (n / 2.0) * chebyshev_U(n, y)
            + al * om ** ((n - 1) / 2.0) * chebyshev_U(n - 1, y)
            + (om - o1) * om ** ((n - 2) / 2.0) * chebyshev_U(n - 2, y))


def orth_poly_closed_R(law, n, x):
    """Where (x - alpha)^2 > 4 omega, with
    R_pm = (x - alpha) pm sqrt((x - alpha)^2 - 4 omega):
    P_n = ((x R_+ - 2 omega1) R_+^{n-1} - (x R_- - 2 omega1) R_-^{n-1})
          / (2^{n-1} (R_+ - R_-))."""
    if n < 1:
        return orth_poly_recurrence(law, n, x)
    law = jacobi_law(law)
    x = np.asarray(x, dtype=float)
    disc = (x - law.alpha) ** 2 - 4.0 * law.omega
    if np.any(disc <= 0):
        raise OutOfDomainError("resolvent form needs (x - alpha)^2 > 4 omega")
    rp = (x - law.alpha) + np.sqrt(disc)
    rm = (x - law.alpha) - np.sqrt(disc)
    return ((x * rp - 2.0 * law.omega1) * rp ** (n - 1)
            - (x * rm - 2.0 * law.omega1) * rm ** (n - 1)) / (2.0 ** (n - 1) * (rp - rm))


# -- reduction -----------------------------------------------------------------

def reduced_norm(s):
    return float(np.sqrt((np.abs(s.xp) ** 2 + np.abs(s.xo) ** 2 + np.abs(s.xm) ** 2).sum()))


def inner(s1, s2):
    """Inner product <s1, s2> of two reduced states, as one vdot over both
    coefficient arrays zero-padded to one length."""
    L = max(s1.length, s2.length)
    a, b = (np.pad(s.coefficients(), ((0, 0), (0, L - s.length))) for s in (s1, s2))
    return float(np.vdot(a, b))


def ladder_amplitude(ev, l):
    """<Psi_l, state> of a ReducedEvolver's cells now: x_0^+ at the root,
    else (sqrt(p) x_l^+ + sqrt(r) x_l^o) + sqrt(q) x_l^-, one scalar
    expression a step, and 0 past ``active``.  It passes through the
    evolver's stratum_probability first, so a negative or stale l raises
    as that read does."""
    ev.stratum_probability(l)
    if l > ev.active:
        return 0.0
    if l == 0:
        return ev.xp[0]
    p, q, r = ev.params.p, ev.params.q, ev.params.r
    return (np.sqrt(p) * ev.xp[l] + np.sqrt(r) * ev.xo[l]) + np.sqrt(q) * ev.xm[l]


def ladder_step(params, cells, M):
    """One step of the reduced walk on (3, n) cells (xp, xo, xm), in place:
    cells 1 .. M are coined by one product with the (3, 3) coin, rows coined
    "-", new "o", coined "+" and columns x^+, x^o, x^-, like the package's
    kernel, then shifted, and xp[M], xp[M + 1] are cleared.

    The product takes cells 1 .. M + 1 and keeps M columns: gemm
    rounds each column alike at every width, and a one-column product
    would go to gemv, which rounds differently.  np.longdouble cells take
    numpy's own loop, in extended precision."""
    p, q, r = params.p, params.q, params.r
    # math.sqrt and np.sqrt both round the root correctly
    cpp, cpo, cpm = 2 * p - 1, 2 * math.sqrt(p * r), 2 * math.sqrt(p * q)
    coo, com, cmm = 2 * r - 1, 2 * math.sqrt(q * r), 2 * q - 1
    coin = np.array([[cpm, com, cmm], [cpo, coo, com], [cpp, cpo, cpm]])
    root = cells[0, 0]
    cm, co, cp = coin @ np.ascontiguousarray(cells[:, 1:M + 2])
    cells[0, 0:M] = cm[:M]
    cells[1, 1:M + 1] = co[:M]
    cells[2, 2:M + 2] = cp[:M]
    cells[2, 1] = root
    cells[0, M:M + 2] = 0.0


def unflushed_ladder_walk(params, steps, reach, dtype=float):
    """Cells 0 .. reach of the reduced walk from psi_0^+ after 0 .. steps
    steps, as a (steps + 1, 3, reach + 1) array (xp, xo, xm).

    The ladder step without the underflow front: step n coins cells
    1 .. min(n - 1, steps - n + reach + 1), the whole light cone of the read
    strata, subnormal tails included.  With ``dtype=np.longdouble`` the
    same float coin entries step the cells in extended precision, so the
    result differs from the float walk by the float walk's rounding alone."""
    cells = np.zeros((3, steps + 2), dtype=dtype)
    cells[0, 0] = 1
    out = np.empty((steps + 1, 3, reach + 1), dtype=dtype)
    out[0] = cells[:, :reach + 1]
    for n in range(1, steps + 1):
        ladder_step(params, cells, min(n - 1, steps - n + reach + 1))
        out[n] = cells[:, :reach + 1]
    return out


JacobiMatrixT = namedtuple("JacobiMatrixT", "diag offdiag")


def build_T(params, cutoff):
    """The symmetric tridiagonal T_N, the cutoff walk compressed onto
    span{Psi_0 .. Psi_N}: diagonal (0, r, ..., r, 0), off-diagonal
    (sqrt(q), sqrt(pq), ..., sqrt(pq), sqrt(p)).  Its eigenvalues are
    simple, lie in [-1, 1] and include 1; -1 is one exactly when r = 0."""
    p, q, r = params.p, params.q, params.r
    diag = np.r_[0.0, np.full(cutoff - 1, r), 0.0]
    offdiag = np.r_[np.sqrt(q), np.full(cutoff - 2, np.sqrt(p * q)), np.sqrt(p)]
    return JacobiMatrixT(diag, offdiag)


def sturm_count(params, cutoff, x):
    """Number of eigenvalues of T_N below x: the negative pivots of
    T_N - x = L D L^T, all N + 1 of them, from the diagonal (0, r, ..., r, 0)
    and the squared off-diagonal (q, pq, ..., pq, p), a zero pivot counted
    as negative."""
    p, q, r = params.p, params.q, params.r
    diag = [0.0] + [r] * (cutoff - 1) + [0.0]
    off2 = [0.0, q] + [p * q] * (cutoff - 2) + [p]
    neg, d = 0, 1.0
    for k in range(cutoff + 1):
        d = ((diag[k] - x) - off2[k] / d) or -np.finfo(float).tiny
        neg += d < 0
    return neg


def interior(params, cutoff, vals):
    """Drop lambda = 1 and, when r = 0, lambda = -1 from descending vals."""
    return vals[1:cutoff + 1] if params.r > 0 else vals[1:cutoff]


# Eigenvalues within 1e-3 of +-1 that LAPACK's bisection places to an ulp,
# the nearest ones first; it takes ~1 ms each at N = 4096.
STEBZ_MAX = 128


@functools.lru_cache(maxsize=None)
def lapack_eigenvalues(params, cutoff):
    """LAPACK's eigenvalues of T_N, descending."""
    t = build_T(params, cutoff)
    lam = np.sort(scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag))[::-1]
    lam.setflags(write=False)
    return lam


def lapack_thetas(params, cutoff):
    """The interior theta of T_N from LAPACK, ascending, which of them are
    known to an ulp of cos(theta), and which of those come from stebz.

    arccos magnifies an eigenvalue's error by 1 / sin(theta), so for up to
    STEBZ_MAX eigenvalues within 1e-3 of +-1, theta comes from
    mu = lambda -+ 1 instead: 2 arcsin(sqrt(|mu| / 2)) at the top end, and
    pi minus that at the bottom one.  There mu is an eigenvalue of T_N -+ 1
    near 0, which LAPACK's bisection (stebz) finds to a fraction of an ulp
    of the entries of T_N -+ 1 near the band.  T_N - 1 takes its interior
    diagonal r - 1 as -(p + q), as the package's Sturm count does: rounded,
    r - 1 could move by up to an ulp of 1, more than the whole band where
    pq is tiny.  The diagonal 1 + r of T_N + 1 is of size 1, so the bottom
    rows are good to an ulp of lambda only.  The rest of those eigenvalues
    are known only as well as LAPACK's dense solver knows lambda."""
    t = build_T(params, cutoff)
    lam = lapack_eigenvalues(params, cutoff)
    thetas = np.arccos(np.clip(lam, -1.0, 1.0))
    exact = np.abs(np.abs(lam) - 1.0) >= 1e-3
    stebz = np.zeros_like(exact)
    for end in (1.0, -1.0):
        k = min(np.count_nonzero(np.abs(lam - end) < 1e-3), STEBZ_MAX)
        if k == 0:
            continue
        first = cutoff + 1 - k if end > 0 else 0
        diag = t.diag - end
        if end > 0:
            diag[1:-1] = -(params.p + params.q)
        mu = scipy.linalg.eigvalsh_tridiagonal(
            diag, t.offdiag, select="i", select_range=(first, first + k - 1),
            lapack_driver="stebz", tol=np.finfo(float).tiny)
        half = 2.0 * np.arcsin(np.sqrt(np.abs(mu[::-1]) / 2.0))
        at = slice(0, k) if end > 0 else slice(cutoff + 1 - k, cutoff + 1)
        thetas[at] = half if end > 0 else np.pi - half
        exact[at] = stebz[at] = True
    return tuple(interior(params, cutoff, v) for v in (thetas, exact, stebz))


def jacobi_dense(t):
    """T_N as a dense symmetric matrix."""
    return np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)


def cutoff_dim(cutoff):
    """Dimension of the cutoff half-line space H(N): 1 + 3(N-1) + 1."""
    return 3 * cutoff - 1


def cutoff_index(n, kind, cutoff):
    """Coordinate of psi_n^kind in H(N): psi_0^+ first, then the triples
    (+, o, -) for n = 1 .. N-1, then the lone psi_N^-."""
    if n == 0:
        return 0
    if n == cutoff:
        return 3 * cutoff - 2
    return 3 * n - 2 + "+o-".index(kind)


def cutoff_walk_matrix(params, cutoff):
    """Dense matrix of the cutoff walk U_N = S_N C_N on H(N).

    The coin acts as the identity on psi_0^+ and on the flagged last slot
    psi_N^-, and as the triple reflection 2 v v^T - I,
    v = (sqrt(p), sqrt(r), sqrt(q)), in between; the shift swaps psi_n^+
    with psi_{n+1}^-.  U_N is real orthogonal with trace (2r - 1)(N - 1).
    """
    N = cutoff
    dim = cutoff_dim(N)
    coin = np.eye(dim)
    v = np.array([np.sqrt(params.p), np.sqrt(params.r), np.sqrt(params.q)])
    m3 = 2.0 * np.outer(v, v) - np.eye(3)
    for n in range(1, N):
        i = cutoff_index(n, "+", N)
        coin[i:i + 3, i:i + 3] = m3
    # U_N = S_N C_N permutes the rows of C_N: psi_n^+ <-> psi_{n+1}^-
    shift = np.arange(dim)
    for n in range(N):
        i, j = cutoff_index(n, "+", N), cutoff_index(n + 1, "-", N)
        shift[i], shift[j] = j, i
    return coin[shift]


def cutoff_psi_vector(params, cutoff, n):
    """Psi_0 = psi_0^+, Psi_N = psi_N^- and, in between,
    Psi_n = sqrt(p) psi_n^+ + sqrt(r) psi_n^o + sqrt(q) psi_n^-, in H(N)."""
    N = cutoff
    if not 0 <= n <= N:
        raise InvalidParamsError(f"Psi_{n} does not exist in H({N})")
    vec = np.zeros(cutoff_dim(N))
    if n in (0, N):
        vec[cutoff_index(n, "+" if n == 0 else "-", N)] = 1.0
    else:
        for kind, weight in (("+", params.p), ("o", params.r), ("-", params.q)):
            vec[cutoff_index(n, kind, N)] = np.sqrt(weight)
    return vec


def eigensystem_T(t):
    """Eigenvalues (descending) and orthonormal eigenvectors of T_N from
    LAPACK, each eigenpair certified by its residual |T_N v - lambda v| <=
    RESIDUAL_TOL (ConvergenceFailureError otherwise)."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    # T_N V - V diag(vals) from the two diagonals, without a dense T_N
    resid = (t.diag[:, None] - vals) * vecs
    resid[:-1] += t.offdiag[:, None] * vecs[1:]
    resid[1:] += t.offdiag[:, None] * vecs[:-1]
    worst = np.sqrt(np.max(np.einsum("ij,ij->j", resid, resid)))
    if not worst <= RESIDUAL_TOL:
        raise ConvergenceFailureError(f"eigenpair residual {worst:.2e} exceeds {RESIDUAL_TOL}")
    return vals, vecs


def discrete_spectral_measure(params, cutoff):
    """Spectral measure of T_N at Psi_0: atoms at the eigenvalues of T_N
    (descending), weighted by the squared first eigenvector components.
    Its m-th moments agree with the free Meixner law for every m < N."""
    vals, vecs = eigensystem_T(build_T(params, cutoff))
    return vals, vecs[0, :] ** 2
