"""Shared exception types and the work bound behind every capability refusal."""

# Largest amount of work a computation may take on, in units of its own
# estimate: candidates times roots for a grid scan, flats for an orbit walk.
MAX_WORK = 10**7


class UsageError(ValueError):
    """A request the CLI cannot parse or an --out path it cannot write; other ValueErrors are internal."""


class CapabilityError(RuntimeError):
    """A computation was refused because it exceeds a configured bound.

    The message always names the bound that was hit, so callers (and the
    CLI's exit-code logic) can distinguish "too big" from "wrong".
    """


def require_work(what: str, work: int) -> None:
    """Refuse, naming the estimate, when `work` exceeds MAX_WORK."""
    if work > MAX_WORK:
        raise CapabilityError(f"{what} = {work} exceeds the work bound {MAX_WORK}")
