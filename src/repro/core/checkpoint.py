"""Server checkpoint / restart to per-rank files (Sec. 4.2.3, 5.4).

Each server rank writes its own checkpoint, as in the paper (512 files of
959 MB on Lustre in their campaign).  Format 5 gives it two slot files,
each a superblock, the state's arrays as raw little-endian segments
written straight from the live arrays, and a JSON manifest: study
fingerprint, scalar and list state, and each segment's path, dtype, shape
and offset.  A save overwrites in place the slot without the newest
generation, zeroing its generation first and writing the next one last,
so a process killed mid-save leaves the previous generation loadable
(nothing is fsynced, so not a power loss).  A load reads the newest valid
generation, skipping a zeroed or torn slot; a retired format or another
study's file is refused by name.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from math import prod
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.core.config import StudyConfig
from repro.core.server import MelissaServer

_FORMAT_VERSION = 5
_MAGIC = b"REPROCK5"
#: magic, generation, manifest offset, length and CRC32, then the CRC32 of
#: the 36 bytes before it
_SUPER = struct.Struct("<8sQQQII")


class CheckpointError(ValueError):
    """A file this study cannot restore: another study's, or no format 5."""


def _fingerprint(config: StudyConfig) -> dict:
    """What a checkpoint must agree on to be loadable: ``version``, the
    study shape and the canonical ``statistics`` specs (restoring under
    another catalog would silently drop or zero per-plugin state)."""
    return {"version": _FORMAT_VERSION, "ncells": config.ncells,
            "ntimesteps": config.ntimesteps, "nparams": config.nparams,
            "server_ranks": config.server_ranks,
            "statistics": list(config.statistics)}


def _refuse(path: Path, found: dict, expected: dict) -> CheckpointError:
    differing = sorted(k for k in {**found, **expected} if found.get(k) != expected.get(k))
    return CheckpointError(
        f"checkpoint {path} was written by an incompatible study "
        f"(mismatched: {', '.join(differing)}): {found} != {expected}"
    )


def _superblock(generation: int, offset: int, length: int, crc: int) -> bytes:
    head = _SUPER.pack(_MAGIC, generation, offset, length, crc, 0)[:-4]
    return head + zlib.crc32(head).to_bytes(4, "little")


def _pwrite(fd: int, data, offset: int) -> None:
    """The one writer of slot bytes: all of ``data`` at ``offset``."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _split(node, path: list, segments: list):
    """``node`` for JSON: each array becomes None, its path and it go to
    ``segments``."""
    if isinstance(node, np.ndarray):
        segments.append((path, node))
        return None
    if isinstance(node, dict):  # JSON keys are text
        return {str(k): _split(v, path + [str(k)], segments) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_split(v, path + [i], segments) for i, v in enumerate(node)]
    return node.item() if isinstance(node, np.generic) else node


def _table(state: dict, entries: list, end: int) -> list:
    """Validated (container, key, dtype, shape, offset) of every segment:
    a plain numeric array filling a None of the state, the segments
    tiling the file from the superblock to the manifest at ``end``."""
    table, cursor = [], _SUPER.size
    for entry in entries:
        try:
            path, descr, shape, offset = (
                entry[k] for k in ("path", "dtype", "shape", "offset")
            )
            dtype = np.dtype(descr if isinstance(descr, str) else "O")
            node = state
            for step in path[:-1]:
                node = node[step]
            key = path[-1]
            if not isinstance(node, (dict, list)) or node[key] is not None:
                raise TypeError("not an array slot of the state")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad segment entry {entry!r}") from exc
        if not (
            descr == dtype.str and descr[0] in "<|" and dtype.kind in "biuf"
            and isinstance(shape, list) and len(shape) <= 32
            and all(type(n) is int and n >= 0 for n in shape)
            and type(offset) is int and offset == cursor
            and cursor + prod(shape) * dtype.itemsize <= end
        ):
            raise CheckpointError(f"bad segment entry {entry!r}")
        cursor += prod(shape) * dtype.itemsize
        node[key] = ()  # claimed until read: a second entry for it is refused
        table.append((node, key, dtype, shape, offset))
    if cursor != end:
        raise CheckpointError("segments do not reach the manifest")
    return table


class CheckpointManager:
    """Writes/reads two slot files per server rank under a directory."""

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoints_written = 0

    def slot_paths(self, rank: int) -> Tuple[Path, Path]:
        """The rank's two slots.  Slot 0 keeps the name formats 1-4 used,
        so a file left by any of them is refused by name, not overlooked."""
        name = f"server_rank{rank:04d}"
        return self.directory / f"{name}.ckpt", self.directory / f"{name}.1.ckpt"

    def _slots(self, rank: int) -> list:
        """(generation, manifest offset, length, CRC, path) of both slots,
        newest first; generation 0 for a missing, torn or zeroed one."""
        slots = []
        # slot 1 first, so that on a tie (no generation yet) slot 0 sorts
        # last and is the one written
        for path in self.slot_paths(rank)[::-1]:
            try:
                with open(path, "rb") as fh:
                    head = fh.read(_SUPER.size)
            except FileNotFoundError:
                head = b""
            if head[: len(_MAGIC)] != _MAGIC[: len(head)]:
                found = {"version": "no format-5 magic"}
                raise _refuse(path, found, {"version": _FORMAT_VERSION})
            fields = _SUPER.unpack(head) if len(head) == _SUPER.size else None
            committed = fields and fields[-1] == zlib.crc32(head[:-4])
            slots.append((*(fields[1:-1] if committed else (0, 0, 0, 0)), path))
        return sorted(slots, key=lambda slot: slot[0], reverse=True)

    def save_rank(self, rank, config: StudyConfig) -> Path:
        """Checkpoint ONE rank, independent of every other (a ``repro
        serve`` process, on its own cadence); returns the slot written."""
        segments: list = []
        state = _split(rank.checkpoint_state(), [], segments)
        table, cursor = [], _SUPER.size
        for i, (path, array) in enumerate(segments):
            array = np.require(array, array.dtype.newbyteorder("<"), "C")
            table.append({"path": path, "dtype": array.dtype.str,
                          "shape": list(array.shape), "offset": cursor})
            segments[i] = array.reshape(-1).view(np.uint8)
            cursor += array.nbytes
        manifest = json.dumps(
            {"fingerprint": _fingerprint(config), "state": state, "segments": table}
        ).encode()
        newest, older = self._slots(rank.rank)
        path = older[-1]
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            _pwrite(fd, _superblock(0, 0, 0, 0), 0)
            for data, entry in zip(segments, table):
                _pwrite(fd, data, entry["offset"])
            _pwrite(fd, manifest, cursor)
            os.ftruncate(fd, cursor + len(manifest))
            crc = zlib.crc32(manifest)
            _pwrite(fd, _superblock(newest[0] + 1, cursor, len(manifest), crc), 0)
        finally:
            os.close(fd)
        return path

    def save(self, server: MelissaServer) -> list:
        """Checkpoint every rank; returns the slot paths written."""
        paths = [self.save_rank(rank, server.config) for rank in server.ranks]
        self.checkpoints_written += 1
        return paths

    def exists(self) -> bool:
        return any(self.directory.glob("server_rank*.ckpt"))

    def load_rank_state(self, rank_idx: int, config: StudyConfig) -> Optional[dict]:
        """The state of one rank's newest generation (None if no slot holds
        one); its arrays are freshly read, so nothing else holds them."""
        for generation, offset, length, crc, path in self._slots(rank_idx):
            if not generation:
                return None
            with open(path, "rb", buffering=0) as fh:
                if offset < _SUPER.size or offset + length > os.fstat(fh.fileno()).st_size:
                    continue
                fh.seek(offset)
                raw = fh.read(length)
                if zlib.crc32(raw) == crc:
                    return self._decode(path, fh, offset, raw, _fingerprint(config))
        return None

    @staticmethod
    def _decode(path: Path, fh, offset: int, raw: bytes, expected: dict) -> dict:
        """Every manifest field checked against the file, then each segment
        read into a fresh array."""
        try:
            manifest = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"checkpoint {path} has no readable manifest") from exc
        found = manifest.get("fingerprint") if isinstance(manifest, dict) else {}
        if found != expected:
            raise _refuse(path, found if isinstance(found, dict) else {}, expected)
        state, table = manifest.get("state"), manifest.get("segments")
        if not isinstance(state, dict) or not isinstance(table, list):
            raise CheckpointError(f"checkpoint {path} has no state or segment table")
        for node, key, dtype, shape, at in _table(state, table, offset):
            node[key] = array = np.empty(shape, dtype)
            view = memoryview(array.reshape(-1).view(np.uint8))
            fh.seek(at)
            while view and (got := fh.readinto(view)):
                view = view[got:]
            if view:
                raise CheckpointError(f"checkpoint {path} ends inside a segment")
        return state

    def restore_rank(self, rank, config: StudyConfig) -> bool:
        """Load one rank's last checkpoint into ``rank``; False if it has
        none.  The rank adopts the loaded arrays, so the restore holds one
        copy of its state, not two."""
        state = self.load_rank_state(rank.rank, config)
        if state is None:
            return False
        rank.adopt_state(state)
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
