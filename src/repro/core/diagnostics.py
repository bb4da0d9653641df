"""Study-level diagnostics."""

from __future__ import annotations

from typing import Iterable


def unfinished_study_message(
    label: str,
    timeout: float,
    ngroups: int,
    done: Iterable[int],
    abandoned: Iterable[int],
    server_ranks: int,
    reported_ranks: Iterable[int],
) -> str:
    """Deadline-breach report naming the unfinished groups and the server
    ranks that never shipped their state."""
    unfinished = sorted(set(range(ngroups)) - set(done) - set(abandoned))
    silent = sorted(set(range(server_ranks)) - set(reported_ranks))
    shown = ", ".join(map(str, unfinished[:12]))
    if len(unfinished) > 12:
        shown += f", ... ({len(unfinished)} total)"
    return (
        f"{label} study did not finish within {timeout:.1f}s: "
        f"{len(unfinished)} group(s) unfinished [{shown}]; "
        f"server rank(s) not reported: {silent}"
    )
