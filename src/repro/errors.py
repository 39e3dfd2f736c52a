"""Exception hierarchy for the Graphene reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause.
Protocol-level failures (a Graphene block that fails to decode, a Merkle
root mismatch) are ordinary, *expected* outcomes of a probabilistic
protocol; they are modelled as exceptions so that the session layer can
fall back from Protocol 1 to Protocol 2 exactly the way the paper
describes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ParameterError(ReproError, ValueError):
    """A data structure or protocol was configured with invalid parameters."""


class DecodeFailure(ReproError):
    """An IBLT (or a pair of IBLTs) could not be fully decoded.

    Attributes
    ----------
    recovered_local:
        Items recovered that were present only on the local side before
        the peeling stalled.
    recovered_remote:
        Items recovered that were present only on the remote side.
    """

    def __init__(self, message: str = "IBLT decode failure",
                 recovered_local=None, recovered_remote=None):
        super().__init__(message)
        self.recovered_local = frozenset(recovered_local or ())
        self.recovered_remote = frozenset(recovered_remote or ())


class MalformedIBLTError(ReproError):
    """A peer sent an IBLT whose peeling never terminates (see paper 6.1).

    Raised when the decode loop observes the same item decoded twice,
    which is the mitigation the paper prescribes for adversarially
    malformed IBLTs.
    """


class SimulationBudgetError(ReproError):
    """A simulator run exhausted its per-call event budget.

    Raised (under ``on_budget="raise"``) instead of silently stopping
    mid-run; the event queue is left intact so the caller can inspect
    pending work or resume with a fresh budget.
    """


class ProtocolFailure(ReproError):
    """A Graphene protocol round failed and cannot be retried further."""

