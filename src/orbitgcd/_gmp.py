"""The system GMP library, bound through ``ctypes`` for three operations
on big non-negative ints: the product (GMP's FFT multiplication, where
CPython stays with Karatsuba), the gcd (GMP's subquadratic half-gcd,
where CPython's ``math.gcd`` is quadratic) and the decimal string.

Nothing here is imported at package import beyond this module: ``ctypes``
and the library load on the first call, exactly once, under a lock.  Each
call inits and clears its own ``mpz_t`` values, so calls share no state,
and ctypes releases the GIL while GMP runs.  Every function returns
``None`` when no libgmp can be loaded; callers then keep their pure
Python path, which gives the same value.

GMP aborts the process on an allocation failure rather than raising
``MemoryError``.  Nothing here bounds the operands: ``maps.orbit``, the
one exact orbit walker, raises on its orbit digit budget (default 10^7
digits) before a step whose points a lower bound puts past it, so a
step's products pass the budget by at most a constant of the map; above
degree ``maps._RESULTANT_MAX_DEGREE`` it checks only after the step, so
the last step's products and gcds can have d times the budget in digits.
Direct calls of ``maps.evaluate`` are bounded only by their arguments.
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
    # n >= 0, little-endian bytes, least significant first
    data = n.to_bytes((n.bit_length() + 7) // 8, "little")
    gmp.import_(z, len(data), -1, 1, 0, 0, data)


def _get(gmp, z) -> int:
    # exactly the bytes of z (one zero byte for z = 0); no count needed
    buf = gmp.buffer((gmp.sizeinbase(z, 2) + 7) // 8)
    gmp.export(buf, None, -1, 1, 0, 0, z)
    return int.from_bytes(buf.raw, "little")


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
