"""Independent reference implementations used only by the test suite.

Everything here is written from the mathematical definitions (direct sums,
schoolbook convolution, big-integer CRT) with no shared code with the
package kernels, so agreement is meaningful.
"""

from sympy import isprime


def ntt_direct(a, q, psi):
    """A_j = sum_i a_i * psi^((2j+1)*i) mod q, natural output order."""
    n = len(a)
    return [sum(a[i] * pow(psi, (2 * j + 1) * i, 2 * n * q) for i in range(n)) % q
            for j in range(n)]


def intt_direct(A, q, psi):
    n = len(A)
    ninv = pow(n, -1, q)
    psi_inv = pow(psi, -1, q)
    return [ninv * sum(A[j] * pow(psi_inv, (2 * j + 1) * i, q) for j in range(n)) % q
            for i in range(n)]


def schoolbook_negacyclic(a, b, q):
    """a*b mod (X^n + 1) mod q by the O(n^2) definition."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        if not a[i]:
            continue
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % q
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % q
    return out


def kronecker_negacyclic(a, b, q):
    """Same product via Kronecker substitution (one big-integer multiply).

    Coefficients are packed at 80 bits each; with n <= 2^16 and q < 2^31
    every column sum stays far below 2^79, so unpacking is exact.
    """
    n = len(a)
    width = 80
    pa = int.from_bytes(
        b"".join(int(x).to_bytes(width // 8, "little") for x in a), "little")
    pb = int.from_bytes(
        b"".join(int(x).to_bytes(width // 8, "little") for x in b), "little")
    prod = pa * pb
    raw = prod.to_bytes(2 * n * (width // 8) + 16, "little")
    step = width // 8
    cols = [int.from_bytes(raw[k * step:(k + 1) * step], "little")
            for k in range(2 * n)]
    return [(cols[i] - cols[i + n]) % q for i in range(n)]


def crt_reconstruct(residues, qs):
    """Smallest non-negative integer congruent to each residue."""
    total, prod = 0, 1
    for r, q in zip(residues, qs):
        assert isprime(q)
        h = pow(prod, -1, q) * ((r - total) % q) % q
        total += prod * h
        prod *= q
    return total % prod


def substitute_power(a, s, q):
    """Coefficients of a(X^(5^s)) mod (X^n + 1) mod q."""
    n = len(a)
    e = pow(5, s % max(n // 2, 1), 2 * n)
    out = [0] * n
    for i in range(n):
        t = (i * e) % (2 * n)
        j = t % n
        v = a[i] if t < n else -a[i]
        out[j] = (out[j] + v) % q
    return out


def bit_rev(i, bits):
    """i with its low `bits` bits in reverse order."""
    r = 0
    for _ in range(bits):
        r = (r << 1) | (i & 1)
        i >>= 1
    return r


def mont_reduce(t, m):
    """Textbook REDC of a double word t < R*q: (t * R^{-1}) mod q, for the
    modulus q = m.q and R = 2^m.r_bits."""
    mask = m.r - 1
    mm = ((t & mask) * m.q_inv_neg) & mask
    u = (t + mm * m.q) >> m.r_bits
    return u - m.q if u >= m.q else u
