"""Cohen's integral LLL, the reference that `numberlab.lll_pauses` must
match pause for pause.

This is the reduction `numberlab` ran before its Gram-Schmidt data moved
to doubles: Cohen, A Course in Computational Algebraic Number Theory,
Alg. 2.6.7, with delta = 3/4, on Python integers only.  The Gram
determinants d_i and the coefficients lambda_ij = d_j mu_ij are kept
exactly, every division is exact, and the rounding is floor(mu + 1/2).
"""


def cohen_lll_pauses(rows):
    """Cohen's integral LLL (delta = 3/4) on linearly independent integer
    rows, taken one at a time from the iterable `rows`: a pause, the basis
    list itself, is yielded each time rows 0..r are reduced, for r = 0, 1,
    ...  The run never looks at row r + 1 before that pause, so the basis
    there is the LLL-reduced basis of rows 0..r alone.  The list goes on
    changing when the run resumes.

    d[j + 1] is the Gram determinant of rows 0..j (d[0] = 1) and
    lam[k][j] = d[j + 1] * mu_kj, so every quantity is an integer.
    """
    b, d, lam = [], [1], []

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u

    def reduce(k, l):
        # size reduction when |mu_kl| > 1/2, by q = floor(mu_kl + 1/2)
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    for row in rows:
        k = len(b)
        b.append(list(row))
        d.append(0)
        lam.append([0] * k)
        gram_schmidt(k)
        while 0 < k < len(b):
            reduce(k, k - 1)
            lk = lam[k][k - 1]
            if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lk ** 2:
                # Lovasz condition fails: swap rows k-1 and k, update exactly
                b[k - 1], b[k] = b[k], b[k - 1]
                lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
                B = (d[k - 1] * d[k + 1] + lk ** 2) // d[k]
                for i in range(k + 1, len(b)):
                    t = lam[i][k]
                    lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                    lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
                d[k] = B
                k = max(k - 1, 1)
            else:
                for l in range(k - 2, -1, -1):
                    reduce(k, l)
                k += 1
        yield b
