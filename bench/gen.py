"""Known-answer inputs for every ebitcalc input kind.

Each generator starts from a canonical generator set whose count is
obvious -- ``c`` anticommuting pairs (Z_i, X_i) plus ``k`` commuting
rows Z_{c+j} -- and scrambles it with moves that provably keep the
count: column maps that preserve the (shifted, Hermitian or
antisymmetric) product form, then an invertible row mix.  The count
``c`` is therefore known by construction, and the benchmark never asks
ebitcalc what the answer should be.

All randomness comes from the ``numpy.random.Generator`` passed in, so
one seed gives byte-identical files.  The writers produce the text
formats documented in the project README.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# GF(2): binary generator sets and CSS pairs


def _canonical_binary(n: int, c: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    if c < 0 or k < 0 or c + k > n:
        raise ValueError(f"need 0 <= c, k and c + k <= n, got c={c} k={k} n={n}")
    z = np.zeros((2 * c + k, n), dtype=np.uint8)
    x = np.zeros_like(z)
    for i in range(c):
        z[2 * i, i] = 1
        x[2 * i + 1, i] = 1
    for j in range(k):
        z[2 * c + j, c + j] = 1
    return z, x


def scramble_symplectic_columns(rng, z, x, layers: int) -> None:
    """In place: random qubit permutations, CNOTs, Hadamards and phases.

    CNOT a->b sets x_b += x_a and z_a += z_b; Hadamard swaps z_a and x_a;
    phase sets z_a += x_a.  Each preserves every symplectic product.
    """
    n = z.shape[1]
    half = n // 2
    for _ in range(layers):
        perm = rng.permutation(n)
        z[:] = z[:, perm]
        x[:] = x[:, perm]
        a, b = np.arange(half), np.arange(half, 2 * half)
        x[:, b] ^= x[:, a]
        z[:, a] ^= z[:, b]
        h = rng.random(n) < 0.5
        z[:, h], x[:, h] = x[:, h].copy(), z[:, h].copy()
        s = rng.random(n) < 0.5
        z[:, s] ^= x[:, s]


def mix_rows_gf2(rng, blocks: list[np.ndarray], layers: int) -> None:
    """In place: ``layers`` rounds of row_p += row_q over a random pairing.

    The same row operations apply to every array in ``blocks`` (the Z
    and X parts of one generator set), so the mix is one invertible
    matrix acting on the generator list.
    """
    m = blocks[0].shape[0]
    half = m // 2
    for _ in range(layers):
        perm = rng.permutation(m)
        p, q = perm[:half], perm[half : 2 * half]
        for b in blocks:
            b[p] ^= b[q]


def binary_set(rng, n: int, c: int, k: int, layers: int = 12):
    """Generator set (Z, X) on n qubits needing exactly c ebits, rows shuffled."""
    z, x = _canonical_binary(n, c, k)
    scramble_symplectic_columns(rng, z, x, layers)
    mix_rows_gf2(rng, [z, x], layers)
    order = rng.permutation(z.shape[0])
    return z[order], x[order]


def binary_set_commuting_first(rng, n: int, c: int, k: int, layers: int = 12):
    """Like :func:`binary_set`, but the k commuting rows are listed first.

    The commuting block is mixed only within itself, and the pair block
    gets its own mix plus random commuting rows added, so the first k
    rows still commute with every row, as codes are usually written.
    """
    z, x = _canonical_binary(n, c, k)
    scramble_symplectic_columns(rng, z, x, layers)
    pz, px = z[: 2 * c], x[: 2 * c]
    cz, cx = z[2 * c :], x[2 * c :]
    mix_rows_gf2(rng, [cz, cx], layers)
    mix_rows_gf2(rng, [pz, px], layers)
    if k:
        coeff = (rng.random((2 * c, k)) < 0.5).astype(np.int64)
        pz ^= (coeff @ cz % 2).astype(np.uint8)
        px ^= (coeff @ cx % 2).astype(np.uint8)
    return np.vstack([cz, pz]), np.vstack([cx, px])


def css_pair(rng, n: int, r1: int, r2: int, c: int, layers: int = 12):
    """Parity checks (H1, H2) of full row rank with rank(H1 H2^T) = c.

    H1 starts as e_0..e_{r1-1}; H2 as e_0..e_{c-1} followed by unit
    rows beyond r1.  Column maps act as A on H1 and A^{-T} on H2, so
    H1 H2^T never changes.
    """
    if not (c <= min(r1, r2) and r1 + r2 - c <= n):
        raise ValueError("need c <= min(r1, r2) and r1 + r2 - c <= n")
    h1 = np.zeros((r1, n), dtype=np.uint8)
    h2 = np.zeros((r2, n), dtype=np.uint8)
    h1[np.arange(r1), np.arange(r1)] = 1
    h2[np.arange(c), np.arange(c)] = 1
    h2[np.arange(c, r2), r1 + np.arange(r2 - c)] = 1
    half = n // 2
    for _ in range(layers):
        perm = rng.permutation(n)
        h1[:] = h1[:, perm]
        h2[:] = h2[:, perm]
        a, b = np.arange(half), np.arange(half, 2 * half)
        # A = I + E_ab on H1 (col b += col a); A^{-T} = I + E_ba on H2.
        h1[:, b] ^= h1[:, a]
        h2[:, a] ^= h2[:, b]
    mix_rows_gf2(rng, [h1], layers)
    mix_rows_gf2(rng, [h2], layers)
    return h1[rng.permutation(r1)], h2[rng.permutation(r2)]


def _lines(header: str, cells: np.ndarray, alphabet: bytes) -> str:
    """Header line, then each row of ``cells`` spelled in ``alphabet``."""
    table = np.frombuffer(alphabet, dtype=np.uint8)
    body = np.empty((cells.shape[0], cells.shape[1] + 1), dtype=np.uint8)
    body[:, :-1] = table[cells]
    body[:, -1] = ord("\n")
    return header + "\n" + body.tobytes().decode("ascii")


def qcheck_text(z: np.ndarray, x: np.ndarray) -> str:
    # Symbol 2 is the '|' column between the Z and X parts.
    bar = np.full((z.shape[0], 1), 2, dtype=np.uint8)
    return _lines(f"qcheck {z.shape[0]} {z.shape[1]}", np.hstack([z, bar, x]), b"01|")


def gf2_text(h: np.ndarray) -> str:
    return _lines(f"gf2 {h.shape[0]} {h.shape[1]}", h, b"01")


# ---------------------------------------------------------------------------
# GF(4): quaternary parity checks

# 0, 1, w, v = w^2 encoded as 0..3; addition is XOR.
GF4_MUL = np.array(
    [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.uint8
)
# Rows are orthonormal under <u, v> = sum u_i conj(v_i): a unitary 3x3.
_GF4_FOURIER = np.array([[1, 1, 1], [1, 2, 3], [1, 3, 2]], dtype=np.uint8)


def gf4_matrix(rng, rows: int, n: int, c: int, layers: int = 8) -> np.ndarray:
    """Full-row-rank H over GF(4) with rank(H H^dagger) = c.

    Starts from c unit rows e_i (norm 1) and rows - c rows e_a + e_b
    (norm 1 + 1 = 0) on disjoint columns, all mutually orthogonal.
    Column maps are unitary (permutations, nonzero scalings, the 3x3
    Fourier block), so H H^dagger only sees the invertible row mix.
    """
    k = rows - c
    if c < 0 or k < 0 or c + 2 * k > n:
        raise ValueError("need 0 <= c <= rows and c + 2(rows - c) <= n")
    h = np.zeros((rows, n), dtype=np.uint8)
    h[np.arange(c), np.arange(c)] = 1
    h[c + np.arange(k), c + 2 * np.arange(k)] = 1
    h[c + np.arange(k), c + 2 * np.arange(k) + 1] = 1
    triples = n // 3
    for _ in range(layers):
        h[:] = h[:, rng.permutation(n)]
        h[:] = GF4_MUL[h, rng.integers(1, 4, n, dtype=np.uint8)[None, :]]
        blk = h[:, : 3 * triples].reshape(rows, triples, 3)
        out = np.zeros_like(blk)
        for t in range(3):
            for s in range(3):
                out[:, :, t] ^= GF4_MUL[blk[:, :, s], _GF4_FOURIER[s, t]]
        h[:, : 3 * triples] = out.reshape(rows, 3 * triples)
    half = rows // 2
    for _ in range(layers):
        perm = rng.permutation(rows)
        p, q = perm[:half], perm[half : 2 * half]
        lam = rng.integers(1, 4, half, dtype=np.uint8)
        h[p] ^= GF4_MUL[lam[:, None], h[q]]
    return h[rng.permutation(rows)]


def gf4_text(h: np.ndarray) -> str:
    return _lines(f"gf4 {h.shape[0]} {h.shape[1]}", h, b"01wv")


# ---------------------------------------------------------------------------
# Z_d: qudit generator sets over a small prime


def qudit_set(rng, d: int, n: int, c: int, k: int, layers: int = 8):
    """Qudit (Z, X) residues mod prime d needing exactly c edits.

    Moves: x_b += t x_a with z_a -= t z_b; Fourier (z, x) -> (-x, z);
    z_a += u x_a; x_a *= l with z_a *= l^-1; then row_p += l row_q.
    Each keeps X Z^T - Z X^T up to an invertible congruence.
    """
    z8, x8 = _canonical_binary(n, c, k)
    z, x = z8.astype(np.int64), x8.astype(np.int64)
    half = n // 2
    inverses = np.array([0] + [pow(v, -1, d) for v in range(1, d)], dtype=np.int64)
    for _ in range(layers):
        perm = rng.permutation(n)
        z, x = z[:, perm], x[:, perm]
        a, b = np.arange(half), np.arange(half, 2 * half)
        t = rng.integers(1, d, half)
        x[:, b] = (x[:, b] + t * x[:, a]) % d
        z[:, a] = (z[:, a] - t * z[:, b]) % d
        f = rng.random(n) < 0.5
        z[:, f], x[:, f] = (-x[:, f]) % d, z[:, f].copy()
        u = rng.integers(0, d, n)
        z = (z + u * x) % d
        lam = rng.integers(1, d, n)
        x = (x * lam) % d
        z = (z * inverses[lam]) % d
    m = z.shape[0]
    hm = m // 2
    for _ in range(layers):
        perm = rng.permutation(m)
        p, q = perm[:hm], perm[hm : 2 * hm]
        lam = rng.integers(1, d, hm)[:, None]
        z[p] = (z[p] + lam * z[q]) % d
        x[p] = (x[p] + lam * x[q]) % d
    order = rng.permutation(m)
    return z[order], x[order]


def qcheckd_text(d: int, z: np.ndarray, x: np.ndarray) -> str:
    rows = [
        " ".join(map(str, zr)) + " | " + " ".join(map(str, xr))
        for zr, xr in zip(z.tolist(), x.tolist())
    ]
    return "\n".join([f"qcheckd {d} {z.shape[0]} {z.shape[1]}", *rows]) + "\n"


# ---------------------------------------------------------------------------
# reals: continuous-variable generator sets


def _rotate(a: np.ndarray, b: np.ndarray, theta: np.ndarray):
    cos, sin = np.cos(theta), np.sin(theta)
    return cos * a - sin * b, sin * a + cos * b


def real_set(rng, n: int, c: int, k: int, layers: int = 6):
    """Real (Z, X) generator set needing exactly c entangled modes.

    Only orthogonal symplectic moves (beam splitters between modes,
    phase rotations within a mode) and orthogonal row rotations are
    used, so the product matrix stays well conditioned and its
    numerical rank is unambiguous.
    """
    z8, x8 = _canonical_binary(n, c, k)
    z, x = z8.astype(np.float64), x8.astype(np.float64)
    half = n // 2
    for _ in range(layers):
        perm = rng.permutation(n)
        z, x = z[:, perm], x[:, perm]
        a, b = np.arange(half), np.arange(half, 2 * half)
        theta = rng.uniform(0, 2 * np.pi, half)
        z[:, a], z[:, b] = _rotate(z[:, a], z[:, b], theta)
        x[:, a], x[:, b] = _rotate(x[:, a], x[:, b], theta)
        phi = rng.uniform(0, 2 * np.pi, n)
        z, x = _rotate(z, x, phi)
    m = z.shape[0]
    hm = m // 2
    for _ in range(layers):
        perm = rng.permutation(m)
        p, q = perm[:hm], perm[hm : 2 * hm]
        theta = rng.uniform(0, 2 * np.pi, hm)[:, None]
        z[p], z[q] = _rotate(z[p], z[q], theta)
        x[p], x[q] = _rotate(x[p], x[q], theta)
    order = rng.permutation(m)
    return z[order], x[order]


def cvcheck_text(z: np.ndarray, x: np.ndarray) -> str:
    rows = [
        " ".join(map(repr, zr)) + " | " + " ".join(map(repr, xr))
        for zr, xr in zip(z.tolist(), x.tolist())
    ]
    return "\n".join([f"cvcheck {z.shape[0]} {z.shape[1]}", *rows]) + "\n"


# ---------------------------------------------------------------------------
# GF(2)[D, D^-1]: convolutional generator sets
#
# A Laurent polynomial is a Python int with bit (e + _OFFSET) set for
# each term D^e, so adding is XOR and multiplying by D^t is a shift.

_OFFSET = 32


def _window(max_exp: int) -> int:
    return ((1 << (2 * max_exp + 1)) - 1) << (_OFFSET - max_exp)


def _shift(p: int, t: int) -> int:
    return p << t if t >= 0 else p >> -t


def conv_set(rng, n: int, c: int, k: int, max_exp: int, ops: int):
    """Convolutional (Z, X) polynomial rows needing exactly c ebits per frame.

    Applies ``ops`` random moves, skipping any that would leave the
    exponent window [-max_exp, max_exp]:
    delayed CNOT x_b += D^t x_a with z_a += D^-t z_b; Hadamard;
    symmetric phase z_a += (D^t + D^-t) x_a (or z_a += x_a);
    row_p += D^t row_q; row_p *= D^t.
    Each keeps the shifted product matrix up to R(D) M R(D^-1)^T with
    R unimodular, so its rank stays 2c.
    """
    z8, x8 = _canonical_binary(n, c, k)
    one = 1 << _OFFSET
    z = [[one if v else 0 for v in row] for row in z8.tolist()]
    x = [[one if v else 0 for v in row] for row in x8.tolist()]
    m = len(z)
    window = _window(max_exp)

    def ok(values) -> bool:
        return all(v & ~window == 0 for v in values)

    for _ in range(ops):
        kind = rng.integers(0, 5)
        t = int(rng.integers(-2, 3))
        if (kind == 0 and n < 2) or (kind == 3 and m < 2) or m == 0:
            continue
        if kind == 0:
            a, b = (int(v) for v in rng.choice(n, 2, replace=False))
            nx = [row[b] ^ _shift(row[a], t) for row in x]
            nz = [row[a] ^ _shift(row[b], -t) for row in z]
            if ok(nx) and ok(nz):
                for r in range(m):
                    x[r][b], z[r][a] = nx[r], nz[r]
        elif kind == 1:
            a = int(rng.integers(0, n))
            for r in range(m):
                z[r][a], x[r][a] = x[r][a], z[r][a]
        elif kind == 2:
            a = int(rng.integers(0, n))
            nz = [
                row_z[a] ^ (row_x[a] if t == 0 else _shift(row_x[a], t) ^ _shift(row_x[a], -t))
                for row_z, row_x in zip(z, x)
            ]
            if ok(nz):
                for r in range(m):
                    z[r][a] = nz[r]
        elif kind == 3:
            p, q = (int(v) for v in rng.choice(m, 2, replace=False))
            nz = [zp ^ _shift(zq, t) for zp, zq in zip(z[p], z[q])]
            nx = [xp ^ _shift(xq, t) for xp, xq in zip(x[p], x[q])]
            if ok(nz) and ok(nx):
                z[p], x[p] = nz, nx
        else:
            p = int(rng.integers(0, m))
            nz = [_shift(v, t) for v in z[p]]
            nx = [_shift(v, t) for v in x[p]]
            if ok(nz) and ok(nx):
                z[p], x[p] = nz, nx
    order = [int(i) for i in rng.permutation(m)]
    return [z[i] for i in order], [x[i] for i in order]


def poly_text(p: int) -> str:
    terms = ["1" if e == 0 else "D" if e == 1 else f"D^{e}" for e in poly_terms(p)]
    return "+".join(terms) or "0"


def poly_terms(p: int) -> list[int]:
    """Exponents of the terms of a packed polynomial, ascending."""
    return [bit - _OFFSET for bit in range(p.bit_length()) if (p >> bit) & 1]


def conv_text(z: list[list[int]], x: list[list[int]]) -> str:
    rows = [
        ", ".join(map(poly_text, zr)) + " | " + ", ".join(map(poly_text, xr))
        for zr, xr in zip(z, x)
    ]
    return "\n".join([f"conv {len(z)} {len(z[0])}", *rows]) + "\n"
