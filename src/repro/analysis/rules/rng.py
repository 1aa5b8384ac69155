"""RNG determinism rules: R001 no-global-rng, R003 rng-must-thread.

The reproduction's seeded benches are byte-identical only because every
random draw flows from an explicitly threaded ``numpy.random.Generator``
(see ``repro/common/rng.py``). R001 bans the two ways code silently falls
back to shared global state — the stdlib ``random`` module-level
functions and ``numpy.random``'s legacy global stream. R003 catches
generators constructed without an explicit seed, which are
OS-entropy-seeded and therefore irreproducible.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.findings import ParsedModule

__all__ = ["no_global_rng", "rng_must_thread"]

#: stdlib ``random`` attributes that are *not* the shared global stream.
_STDLIB_RANDOM_OK = {"Random", "SystemRandom"}

#: ``numpy.random`` functions that draw from / mutate the legacy global
#: RandomState. Constructors and types (``default_rng``, ``Generator``,
#: ``SeedSequence``, ``RandomState``) are deliberately absent — they are
#: R003's concern.
_NUMPY_GLOBAL_FNS = {
    "seed", "get_state", "set_state",
    "random", "random_sample", "ranf", "sample", "rand", "randn", "randint",
    "random_integers", "bytes", "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "lognormal", "exponential",
    "poisson", "binomial", "beta", "gamma", "triangular", "laplace",
    "logistic", "pareto", "power", "rayleigh", "wald", "weibull", "zipf",
    "geometric", "gumbel", "hypergeometric", "multinomial",
    "multivariate_normal", "negative_binomial", "chisquare", "dirichlet",
    "f", "vonmises", "standard_cauchy", "standard_exponential",
    "standard_gamma", "standard_t",
}

#: Generator constructors R003 demands an explicit seed for. Maps the
#: qualified callable to the human name used in messages.
_CONSTRUCTORS = {
    "random.Random": "random.Random",
    "numpy.random.default_rng": "numpy.random.default_rng",
    "numpy.random.RandomState": "numpy.random.RandomState",
    "repro.common.rng.make_rng": "make_rng",
    "repro.common.make_rng": "make_rng",
}


def no_global_rng(module: ParsedModule) -> Iterator[tuple[ast.Call, str]]:
    """R001: never draw from module-level RNG state.

    Flags calls to stdlib ``random.*`` functions and to ``numpy.random``'s
    legacy global-stream functions, anywhere.
    """
    for node, qualified in module.calls():
        module_name, _, attr = qualified.rpartition(".")
        if module_name == "random" and attr not in _STDLIB_RANDOM_OK:
            yield node, (
                f"call to global-stream `random.{attr}`; draw from a "
                "threaded numpy Generator instead"
            )
        elif module_name == "numpy.random" and attr in _NUMPY_GLOBAL_FNS:
            yield node, (
                f"call to legacy global-stream `numpy.random.{attr}`; "
                "draw from a threaded Generator instead"
            )


def rng_must_thread(module: ParsedModule) -> Iterator[tuple[ast.Call, str]]:
    """R003: generator construction must pass an explicit seed.

    ``random.Random()`` / ``numpy.random.default_rng()`` / ``make_rng()``
    with no argument seed from OS entropy, so two runs of the same bench
    diverge. The seed may be any expression (an int, a parent generator,
    a derived label) — it just has to be *stated*.
    """
    for node, qualified in module.calls():
        if qualified not in _CONSTRUCTORS or node.args or any(
            kw.arg in ("seed", "x", None) for kw in node.keywords
        ):
            continue
        yield node, (
            f"`{_CONSTRUCTORS[qualified]}()` without an explicit seed is "
            "irreproducible; pass a seed or a parent Generator"
        )
