"""Pure-Python references for every bundled corpus program.

These are written directly from the algorithm definitions (no IR, no
interpreter) and serve as the independent oracle: corpus manifests were
generated from these functions, and the test suite checks the reference,
the pinned manifest, and the interpreter all agree.

Shared conventions with the IR ports: integers are signed 64-bit with
wrapping; `>>` on the IR side is an arithmetic shift; packed arrays hold
8 unsigned bytes (or 4 unsigned 16-bit lanes) little-endian in one word.
"""


def wrap64(v: int) -> int:
    return ((v + (1 << 63)) & ((1 << 64) - 1)) - (1 << 63)


def pack_bytes(values) -> int:
    assert len(values) == 8 and all(0 <= v <= 255 for v in values)
    out = 0
    for i, v in enumerate(values):
        out |= v << (8 * i)
    return wrap64(out)


def unpack_bytes(packed: int) -> list[int]:
    packed &= (1 << 64) - 1
    return [(packed >> (8 * i)) & 255 for i in range(8)]


def pack_u16(values) -> int:
    assert len(values) == 4 and all(0 <= v <= 0xFFFF for v in values)
    out = 0
    for i, v in enumerate(values):
        out |= v << (16 * i)
    return wrap64(out)


# Each reference returns (printed outputs, return value).

def kth_smallest(arr: int, k: int):
    vals = sorted(unpack_bytes(arr))
    best = vals[k - 1]
    return [best], best


def gcd(a: int, b: int):
    while b != 0:
        a, b = b, a % b
    return [a], a


def fib(n: int):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, wrap64(a + b)
    return [a], a


def collatz(n: int):
    steps = 0
    while n > 1:
        n = n // 2 if n % 2 == 0 else 3 * n + 1
        steps += 1
    return [steps], steps


def bubble_sort(arr: int):
    vals = sorted(unpack_bytes(arr))
    packed = pack_bytes(vals)
    return list(vals), packed


def binary_search(arr: int, target: int):
    vals = unpack_bytes(arr)
    lo, hi, res = 0, 7, -1
    while lo <= hi:
        mid = (lo + hi) // 2
        if vals[mid] == target:
            res = mid
            break
        if vals[mid] < target:
            lo = mid + 1
        else:
            hi = mid - 1
    return [res], res


def popcount(x: int):
    assert x >= 0
    n = bin(x).count("1")
    return [n], n


def isqrt(n: int):
    assert n >= 0
    r = int(n ** 0.5)
    while r * r > n:
        r -= 1
    while (r + 1) * (r + 1) <= n:
        r += 1
    return [r], r


def pow_mod(base: int, exp: int, mod: int):
    r = pow(base, exp, mod)
    return [r], r


def xorshift(state: int, rounds: int):
    mask = (1 << 64) - 1
    s = state & mask
    for _ in range(rounds):
        s = (s ^ (s << 13)) & mask
        s = s ^ (s >> 7)
        s = (s ^ (s << 17)) & mask
    s = wrap64(s)
    return [s], s


def checksum(data: int):
    s1, s2 = 1, 0
    for b in unpack_bytes(data):
        s1 = (s1 + b) % 255
        s2 = (s2 + s1) % 255
    out = s2 * 256 + s1
    return [out], out


def mix_hash(x: int):
    mask = (1 << 64) - 1
    v = x & mask
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & mask
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & mask
    v ^= v >> 31
    v = wrap64(v)
    return [v], v


def tea_mix(v0: int, v1: int):
    mask = (1 << 64) - 1
    k0, k1, k2, k3 = 322420958, 2846822519, 931581076, 3095294344
    delta = 2654435769
    s = 0
    a, b = v0 & mask, v1 & mask
    for _ in range(8):
        s = (s + delta) & mask
        a = (a + (((b << 4) + k0) & mask ^ (b + s) & mask ^ ((b >> 5) + k1) & mask)) & mask
        b = (b + (((a << 4) + k2) & mask ^ (a + s) & mask ^ ((a >> 5) + k3) & mask)) & mask
    out = wrap64(a ^ b)
    return [out], out


def min_max(arr: int):
    vals = unpack_bytes(arr)
    mn, mx = min(vals), max(vals)
    out = mx * 256 + mn
    return [mn, mx, out], out


def reverse_bits(x: int):
    bits = f"{x & ((1 << 64) - 1):064b}"
    out = wrap64(int(bits[::-1], 2))
    return [out], out


def digit_sum(n: int):
    s = sum(int(d) for d in str(abs(n)))
    return [s], s


def is_prime(n: int):
    if n < 2:
        r = 0
    elif n == 2:
        r = 1
    elif n % 2 == 0:
        r = 0
    else:
        r = 1
        i = 3
        while i * i <= n:
            if n % i == 0:
                r = 0
                break
            i += 2
    return [r], r


def ack_main(m: int, n: int):
    def ack(m, n):
        if m == 0:
            return n + 1
        if n == 0:
            return ack(m - 1, 1)
        return ack(m - 1, ack(m, n - 1))

    r = ack(m, n)
    return [r], r


def lcm(a: int, b: int):
    g = a
    btmp = b
    while btmp != 0:
        g, btmp = btmp, g % btmp
    out = (a // g) * b
    return [out], out


def poly_eval(coeffs: int, x: int):
    lanes = [(coeffs >> (16 * i)) & 0xFFFF for i in range(4)]

    def horner(z: int) -> int:
        acc = 0
        for i in (3, 2, 1, 0):
            acc = wrap64(wrap64(acc * z) + lanes[i])
        return acc

    at_x = horner(x)
    at_next = horner(wrap64(x + 1))
    out = wrap64(at_x + at_next)
    return [at_x, at_next, out], out


def range_xor(n: int):
    r = n & 3
    res = {0: n, 1: 1, 2: n + 1, 3: 0}[r]
    return [res], res


def sort_four(a: int, b: int, c: int, d: int):
    s = sorted([a, b, c, d])
    return list(s), s[0]


def fnv_hash(data: int):
    mask = (1 << 64) - 1
    h = 0xCBF29CE484222325
    for b in unpack_bytes(data):
        h ^= b
        h = (h * 1099511628211) & mask
    h = wrap64(h)
    return [h], h


def rotl_mix(state: int, rounds: int):
    mask = (1 << 64) - 1
    s = state & mask
    for _ in range(rounds):
        s = ((s << 7) | (s >> 57)) & mask
        s ^= 2654435761
        s = (s + 40503) & mask
    s = wrap64(s)
    return [s], s


def morton(x: int, y: int):
    def spread(v: int) -> int:
        v &= 0xFFFF
        v = (v | (v << 8)) & 0x00FF00FF
        v = (v | (v << 4)) & 0x0F0F0F0F
        v = (v | (v << 2)) & 0x33333333
        v = (v | (v << 1)) & 0x55555555
        return v

    out = spread(x) | (spread(y) << 1)
    return [out], out


def abs_diff(a: int, b: int):
    total = sum(abs(x - y) for x, y in zip(unpack_bytes(a), unpack_bytes(b)))
    return [total], total


# entry base name -> reference callable
REFERENCES = {
    "kthSmallest": kth_smallest,
    "gcd": gcd,
    "fib": fib,
    "collatz": collatz,
    "bubbleSort": bubble_sort,
    "binarySearch": binary_search,
    "popcount": popcount,
    "isqrt": isqrt,
    "powMod": pow_mod,
    "xorshift": xorshift,
    "checksum": checksum,
    "mixHash": mix_hash,
    "teaMix": tea_mix,
    "minMax": min_max,
    "reverseBits": reverse_bits,
    "digitSum": digit_sum,
    "isPrime": is_prime,
    "ackMain": ack_main,
    "lcm": lcm,
    "polyEval": poly_eval,
    "rangeXor": range_xor,
    "sortFour": sort_four,
    "fnvHash": fnv_hash,
    "rotlMix": rotl_mix,
    "morton": morton,
    "absDiff": abs_diff,
}


class RestartingNameAllocator:
    """The fresh-name probe of `iobf.ir.NameAllocator` as first written:
    `base`, else `base` plus the least free suffix, probed from 1 on every
    call (quadratic in the names that share a base)."""

    def __init__(self, taken):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        name, i = base, 1
        while name in self.taken:
            name = f"{base}{i}"
            i += 1
        self.taken.add(name)
        return name
