"""The system GMP library, bound through ``ctypes`` for four operations
on big non-negative ints: the product (GMP's FFT multiplication, where
CPython stays with Karatsuba), the gcd (GMP's subquadratic half-gcd,
where CPython's ``math.gcd`` is quadratic), the division with remainder
(``mpz_tdiv_qr``, subquadratic, where CPython's long division costs the
product of the quotient's and the divisor's lengths) and the decimal
string.

Each operand goes in as one ``int.to_bytes`` of little-endian 64-bit
words, imported whole by ``mpz_import``, and each result comes back as
the same words, exported into a zeroed ctypes buffer that
``int.from_bytes`` reads directly: one copy each way, and word-sized
moves inside GMP.

Nothing here is imported at package import beyond this module: ``ctypes``
and the library load on the first call, exactly once, under a lock.  Each
call inits and clears its own ``mpz_t`` values, so calls share no state,
and ctypes releases the GIL while GMP runs.  Every function returns
``None`` when no libgmp can be loaded; callers then keep their pure
Python path, which gives the same value.

GMP aborts the process on an allocation failure rather than raising
``MemoryError``.  Nothing here bounds the operands: ``maps.orbit``, the
one exact orbit walker, raises on its orbit digit budget (default 10^7
digits) before a step whose points a lower bound puts past it, at every
degree, so a step's products pass the budget by at most a constant of
the map.  Direct calls of ``maps.evaluate`` are bounded only by their
arguments.
"""

from __future__ import annotations

import threading

_lock = threading.Lock()
_loaded = False
_gmp = None          # the bound functions once loaded, None without libgmp


def _bind():
    """The bound GMP functions, or None when no libgmp loads."""
    import ctypes
    from types import SimpleNamespace

    try:
        lib = ctypes.CDLL("libgmp.so.10")
    except OSError:
        # find_library starts subprocesses (and imports subprocess), so it
        # is only the fallback
        import ctypes.util
        name = ctypes.util.find_library("gmp")
        if name is None:
            return None
        try:
            lib = ctypes.CDLL(name)
        except OSError:
            return None

    class Mpz(ctypes.Structure):
        _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int),
                    ("d", ctypes.c_void_p)]

    mpz, size_t, c_int = ctypes.POINTER(Mpz), ctypes.c_size_t, ctypes.c_int
    signatures = {
        "init": (None, [mpz]),
        "clear": (None, [mpz]),
        "import_": (None, [mpz, size_t, c_int, size_t, c_int, size_t, ctypes.c_char_p]),
        "export": (ctypes.c_void_p, [ctypes.c_char_p, ctypes.POINTER(size_t), c_int,
                                     size_t, c_int, size_t, mpz]),
        "gcd": (None, [mpz, mpz, mpz]),
        "mul": (None, [mpz, mpz, mpz]),
        "tdiv_qr": (None, [mpz, mpz, mpz, mpz]),
        "sizeinbase": (size_t, [mpz, c_int]),
        "get_str": (ctypes.c_void_p, [ctypes.c_char_p, c_int, mpz]),
    }
    funcs = {}
    try:
        for name, (restype, argtypes) in signatures.items():
            fn = getattr(lib, "__gmpz_" + name.rstrip("_"))   # import_: a keyword
            fn.restype, fn.argtypes = restype, argtypes
            funcs[name] = fn
    except AttributeError:
        return None
    return SimpleNamespace(**funcs, Mpz=Mpz, buffer=ctypes.create_string_buffer)


def _load():
    """The bound functions, loading the library on the first call only."""
    global _loaded, _gmp
    if not _loaded:
        with _lock:
            if not _loaded:
                _gmp = _bind()
                _loaded = True
    return _gmp


class _Mpzs:
    """``k`` fresh mpz_t values, cleared on exit."""

    def __init__(self, gmp, k: int):
        self.gmp, self.values = gmp, [gmp.Mpz() for _ in range(k)]

    def __enter__(self):
        for z in self.values:
            self.gmp.init(z)
        return self.values

    def __exit__(self, *exc):
        for z in self.values:
            self.gmp.clear(z)


def _set(gmp, z, n: int) -> None:
    # n >= 0 as little-endian 64-bit words, least significant first
    words = (n.bit_length() + 63) >> 6
    gmp.import_(z, words, -1, 8, -1, 0, n.to_bytes(8 * words, "little"))


def _get(gmp, z) -> int:
    # the same words, read from the zeroed buffer itself; z = 0 writes none
    buf = gmp.buffer(8 * ((gmp.sizeinbase(z, 2) + 63) >> 6))
    gmp.export(buf, None, -1, 8, -1, 0, z)
    return int.from_bytes(buf, "little")


def mul(x: int, y: int) -> int | None:
    """x * y of two non-negative ints by GMP, or None without libgmp; when
    ``y is x`` the one import is passed twice and GMP squares."""
    gmp = _load()
    if gmp is None:
        return None
    with _Mpzs(gmp, 3) as (a, b, p):
        _set(gmp, a, x)
        if y is x:
            b = a
        else:
            _set(gmp, b, y)
        gmp.mul(p, a, b)
        return _get(gmp, p)


def gcd(x: int, y: int) -> int | None:
    """gcd(x, y) of two non-negative ints by GMP, or None without libgmp."""
    gmp = _load()
    if gmp is None:
        return None
    with _Mpzs(gmp, 3) as (a, b, g):
        _set(gmp, a, x)
        _set(gmp, b, y)
        gmp.gcd(g, a, b)
        return _get(gmp, g)


def divmod(x: int, y: int) -> tuple[int, int] | None:
    """(x // y, x % y) of two non-negative ints by GMP's truncating
    division, which floors on them, or None without libgmp.  y = 0 raises
    ``ZeroDivisionError`` here, where GMP would trap."""
    if y == 0:
        raise ZeroDivisionError("division by zero")
    gmp = _load()
    if gmp is None:
        return None
    with _Mpzs(gmp, 4) as (a, b, q, r):
        _set(gmp, a, x)
        _set(gmp, b, y)
        gmp.tdiv_qr(q, r, a, b)
        return _get(gmp, q), _get(gmp, r)


def decimal(n: int) -> str | None:
    """The decimal digits of a non-negative int by GMP, or None without
    libgmp."""
    gmp = _load()
    if gmp is None:
        return None
    with _Mpzs(gmp, 1) as (z,):
        _set(gmp, z, n)
        # sizeinbase may exceed the digit count by one; plus the NUL
        buf = gmp.buffer(gmp.sizeinbase(z, 10) + 2)
        gmp.get_str(buf, 10, z)
    return buf.value.decode("ascii")
