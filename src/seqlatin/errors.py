"""Exception hierarchy for the seqlatin package.

Every error raised deliberately by this package derives from SeqLatinError,
so callers can catch one type at the CLI boundary.  Construction failures
carry the pipeline stage that gave up, which the CLI surfaces verbatim.
"""


class SeqLatinError(Exception):
    """Base class for all package errors."""


class GroupFormatError(SeqLatinError):
    """A group descriptor (JSON or dataclass) is malformed."""


class ShapeMismatch(SeqLatinError):
    """An element or matrix does not match the group's shape."""


class NotCoprime(SeqLatinError):
    """A scalar action requires gcd(scalar, modulus) == 1."""


class NoSuchUnit(SeqLatinError):
    """No unit of the requested multiplicative order exists mod m."""


class NoStarIndex(SeqLatinError):
    """A rotational terrace lacks the fixed point needed for this step."""


class ConstructionFailed(SeqLatinError):
    """A pipeline could not produce the promised object.

    `stage` names the step that failed; the message says why, and
    `failures` lists the reasons one by one when the stage gave several.
    """

    def __init__(self, stage: str, message: str, failures=()):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.failures = list(failures)


class NotFound(SeqLatinError):
    """An exhaustive or randomized search ended without a witness.

    A randomized search sets `nodes`, the nodes it opened, and `seed`;
    a run over several seeds also sets `seeds`, the seeds it tried.
    """

    def __init__(self, message: str, *, nodes=None, seed=None, seeds=None):
        super().__init__(message)
        self.nodes, self.seed, self.seeds = nodes, seed, seeds


class DeskScaleExceeded(SeqLatinError):
    """An input is larger than the configured brute-force ceiling."""


class NotIndependent(SeqLatinError):
    """Two elements expected to generate a rank-2 subgroup do not."""


class OrderMismatch(SeqLatinError):
    """An element's order differs from what a construction requires."""


class Diagonalisable(SeqLatinError):
    """Requested a non-diagonalisable action where only diagonal ones exist."""


class ConditionsViolated(SeqLatinError):
    """A checklist of construction conditions has at least one failure.

    `failures` lists (family, detail) pairs for reporting.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"{fam}: {det}" for fam, det in self.failures)
        super().__init__(f"{len(self.failures)} condition(s) violated: {lines}")


class NotATerrace(SeqLatinError):
    """A candidate arrangement fails the terrace test."""


class OddOrder(SeqLatinError):
    """An operation requires even order (or vice versa) and got the wrong parity."""
