"""Server checkpoint / restart to per-rank files (Sec. 4.2.3, 5.4).

Each server rank independently writes one checkpoint file — exactly the
paper's scheme (512 files of 959 MB each on Lustre in their campaign).
Files are written atomically (temp + rename) so a crash mid-checkpoint
leaves the previous valid generation in place, and each file carries the
study fingerprint so a restart against a different configuration fails
loudly instead of corrupting statistics.
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path
from typing import List, Optional

from repro.core.config import StudyConfig
from repro.core.server import MelissaServer

_FORMAT_VERSION = 4


def _fingerprint(config: StudyConfig) -> dict:
    """The configuration facts a checkpoint must agree on to be loadable.

    Format 4 is the only format: ``version`` plus the study shape and the
    full canonical ``statistics`` spec list.  It differs from format 3 in
    that ``moments`` at order <= 2 saves no arrays (the rank derives it
    from the Sobol' state's A/B rows), so a format-3 file is refused by
    ``version`` like every other retired format.  Restoring under a statistics
    catalog that differs from the checkpoint's would silently drop or
    zero per-plugin state, so any mismatch fails loudly with the
    differing keys named.
    """
    return {
        "version": _FORMAT_VERSION,
        "ncells": config.ncells,
        "ntimesteps": config.ntimesteps,
        "nparams": config.nparams,
        "server_ranks": config.server_ranks,
        "statistics": list(config.statistics),
    }


class CheckpointManager:
    """Writes/reads one file per server rank under a checkpoint directory."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoints_written = 0

    def rank_path(self, rank: int) -> Path:
        return self.directory / f"server_rank{rank:04d}.ckpt"

    # ------------------------------------------------------------------ #
    def save_rank(self, rank, config: StudyConfig) -> Path:
        """Atomically checkpoint ONE rank, independent of every other.

        This is the write path a distributed ``repro serve`` process uses:
        each rank checkpoints on its own cadence and can restore across a
        reconnect without any cross-rank coordination — exactly the
        paper's independent per-rank files (Sec. 4.2.3).
        """
        payload = {"fingerprint": _fingerprint(config), "state": rank.checkpoint_state()}
        path = self.rank_path(rank.rank)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)  # atomic on POSIX
        return path

    def save(self, server: MelissaServer) -> List[Path]:
        """Checkpoint every rank; returns the file paths."""
        paths = [self.save_rank(rank, server.config) for rank in server.ranks]
        self.checkpoints_written += 1
        return paths

    def exists(self) -> bool:
        return any(self.directory.glob("server_rank*.ckpt"))

    def load_rank_state(self, rank_idx: int, config: StudyConfig) -> Optional[dict]:
        """Validated state payload for one rank, or None if no file exists."""
        path = self.rank_path(rank_idx)
        if not path.exists():
            return None
        expected = _fingerprint(config)
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        # anything that is not a {fingerprint, state} payload compares as an
        # empty fingerprint, so it is refused by the same named error
        found = {}
        if (
            isinstance(payload, dict)
            and isinstance(payload.get("fingerprint"), dict)
            and "state" in payload
        ):
            found = payload["fingerprint"]
        if found != expected:
            differing = sorted(
                key
                for key in set(found) | set(expected)
                if found.get(key) != expected.get(key)
            )
            raise ValueError(
                f"checkpoint {path} was written by an incompatible study "
                f"(mismatched: {', '.join(differing)}): {found} != {expected}"
            )
        return payload["state"]

    def restore_rank(self, rank, config: StudyConfig) -> bool:
        """Load one rank's last checkpoint into ``rank`` if one exists.

        Returns True when a checkpoint was restored — the read half of
        the per-rank reconnect path.
        """
        state = self.load_rank_state(rank.rank, config)
        if state is None:
            return False
        rank.restore_state(state)
        return True

    def restore(self, config: StudyConfig) -> MelissaServer:
        """Build a fresh server and load every rank's last checkpoint."""
        server = MelissaServer(config)
        for rank in server.ranks:
            if not self.restore_rank(rank, config):
                raise FileNotFoundError(f"missing checkpoint for rank {rank.rank}")
        return server

    def bytes_on_disk(self) -> int:
        return sum(p.stat().st_size for p in self.directory.glob("server_rank*.ckpt"))
