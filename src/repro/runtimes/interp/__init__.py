"""The interpretation engine, with classic (WAMR) and threaded-code
(Wasm3) cost profiles."""

from .engine import (CLASSIC_PROFILE, THREADED_PROFILE, InterpProfile,
                     Interpreter, PreparedFunction, prepare_function)

__all__ = ["CLASSIC_PROFILE", "THREADED_PROFILE", "InterpProfile",
           "Interpreter", "PreparedFunction", "prepare_function"]
