"""PIOMan: I/O event manager + scheduler integration + submission offload."""

from repro.pioman.integration import attach_pioman
from repro.pioman.manager import PIOMan
from repro.pioman.offload import (
    IdleCoreSubmit,
    SubmitOffload,
    TaskletSubmit,
    set_offload,
)

__all__ = [
    "attach_pioman",
    "PIOMan",
    "IdleCoreSubmit",
    "SubmitOffload",
    "TaskletSubmit",
    "set_offload",
]
