"""The block-form kernels as they were written before they cut their own
results: each product, difference and dot product is formed exactly and
handed to one `cut`.  `cuspforge.blockform` fuses the cut into the
arithmetic, and must give these triples bit for bit.
"""


def cut(re, im, e, width):
    s = max(re.bit_length(), im.bit_length()) - width
    if s > 0:
        return re >> s, im >> s, e + s
    return re, im, e


def aligned(forms):
    e = min((f[2] for f in forms), default=0)
    re = im = 0
    for a, b, f in forms:
        re += a << (f - e)
        im += b << (f - e)
    return re, im, e


def mul(x, y, width):
    a, b, e = x
    c, d, f = y
    return cut(a * c - b * d, a * d + b * c, e + f, width)


def minus(x, y, width):
    a, b, e = x
    c, d, f = y
    if e > f:
        a, b, e = a << (e - f), b << (e - f), f
    elif f > e:
        c, d = c << (f - e), d << (f - e)
    return cut(a - c, b - d, e, width)


def dot(x, y, width):
    return cut(*aligned([(a * c - b * d, a * d + b * c, e + f)
                         for (a, b, e), (c, d, f) in zip(x, y) if (a or b) and (c or d)]), width)
