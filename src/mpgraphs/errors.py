"""Structured exceptions.

Every error carries a ``certificate`` dict with enough detail to reproduce
or refute the failure (the offending cycle, the duplicate value, the failed
step).  The CLI renders these verbatim as JSON.
"""

from __future__ import annotations

from typing import Any


class MpgError(Exception):
    """Base class for all domain errors."""

    def __init__(self, message: str, **certificate: Any):
        super().__init__(message)
        self.message = message
        self.certificate = certificate

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "error": type(self).__name__,
            "message": self.message,
            "certificate": self.certificate,
        }


class InstanceTextError(MpgError):
    """Malformed instance text (non-integer token, truncated stream)."""


class NotAPermutation(MpgError):
    """sigma has a duplicate or out-of-range entry."""


class TooSmall(MpgError):
    """Half-order below the minimum m >= 3."""


class LengthMismatch(MpgError):
    """len(sigma) differs from the declared half-order."""


class TooFewEdges(MpgError):
    """Fewer than two matching edges kept; suppression would create a loop."""


class NoCycle(MpgError):
    """Girth requested on an acyclic multigraph."""


class UnsupportedFormat(MpgError):
    """Unknown drawing output format."""


class IndexOutOfRange(MpgError):
    """An A-index argument outside 0..m-1."""


class NotAnInducedP4(MpgError):
    """The given quadruple is not an induced 4-vertex path of the crossing graph."""


class NotAC4ThroughE(MpgError):
    """A replayed C4Reduce step names no matched-4-cycle partner of the
    current anchor."""


class PreconditionViolated(MpgError):
    """Some matched 4-cycle avoids the requested edge; carries one such
    cycle as the counterexample."""


class InternalInvariantViolated(MpgError):
    """A state the underlying theory rules out.  Never caught internally;
    reaching it means a bug, so it aborts loudly with full context."""


class OutOfScanRange(MpgError):
    """Exhaustive scan requested outside the guarded 3..8 range."""


class ExhaustedAttempts(MpgError):
    """Rejection sampling hit the attempt cap."""


class InvalidK(MpgError):
    """Family parameter below 1, or so large that m = 3k+7 exceeds MAX_M."""


class TooLarge(MpgError):
    """Half-order above MAX_M, asked of random_instance or declared in text."""


class InvalidJobs(MpgError):
    """``enumerate_m_p10`` given jobs below 1.  Nothing else takes jobs;
    this goes, with that keyword, in the next change to the benchmark,
    which is its only caller that passes it."""


class IndicesNotDistinct(MpgError):
    """A checker that compares two edges or anchors was given one twice."""


class InvalidLemmaArgs(MpgError):
    """``check --args`` holds the wrong number of indices for the lemma:
    redrawing and replace take two, zhang and lower none."""


class InvalidSymmetry(MpgError):
    """A symmetry op other than apply_symmetry's four, or a shift k that
    is not an integer."""


class InvalidSeed(MpgError):
    """Random seed outside the Philox key range 0 <= seed < 2**128."""
