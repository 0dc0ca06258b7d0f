"""Exception hierarchy for the repro package.

Every failure mode that the paper's flow can hit has a dedicated
exception so callers (and the experiment harness) can distinguish
"no mapping exists under these context-memory constraints" — an
*expected* outcome reproduced in Figs 6-8 — from genuine bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class IRError(ReproError):
    """Malformed or inconsistent CDFG/DFG."""


class ValidationError(IRError):
    """A graph failed structural validation."""


class ArchitectureError(ReproError):
    """Inconsistent CGRA description (bad grid, bad CM layout...)."""


class MappingError(ReproError):
    """Generic mapping-flow failure."""


class UnmappableError(MappingError):
    """No valid mapping exists for the kernel under the given constraints.

    This is the outcome rendered as zero-height bars in the paper's
    Figs 6-8: the flow exhausted transformations and every partial
    mapping violated the context-memory constraints.
    """

    def __init__(self, message, kernel=None, config=None, block=None):
        super().__init__(message)
        self.kernel = kernel
        self.config = config
        self.block = block


class SchedulingError(MappingError):
    """List scheduling could not order the data-flow graph."""


class CodegenError(ReproError):
    """Assembler or binary encoder failure."""


class EncodingError(CodegenError):
    """A field does not fit its instruction-word slot."""


class SimulationError(ReproError):
    """CGRA or CPU simulation failed (bad context, runaway loop...)."""


class ContextOverflowError(SimulationError):
    """A tile's context stream exceeds its context-memory depth.

    The simulator enforces the same constraint the mapper optimises
    (`n(Mo) + n(pnop) <= n(I)`), so a mapping that silently violated it
    is caught at load time rather than producing bogus energy numbers.
    """
