"""Binary checkpoint container.

Little-endian layout:

    magic "HDRS" | u32 format version | u32 text length | UTF-8 key=value
    lines | u32 array count | per array: u32 name length, name bytes,
    u32 rank, u64 dims..., raw float32 data | u32 CRC32

The trailing CRC32 covers every preceding byte; a truncated or bit-flipped
file fails closed with ``Corrupt`` before any state is handed back. Writes
go to a temp file in the target directory followed by an atomic rename.

A load reads the file once, front to back, through a small ring of scratch
buffers, and a helper thread chains the CRC over each buffer while the next
one is read. Every length is checked against the records before it is
read, and a name length or rank against a small bound, since headers are
parsed before the CRC is known. A damaged text length or array shape that
still fits the file can cost up to the file's own size in memory before the
CRC rejects it. The checks resolve in this order: a file that shrinks under the
reader; the CRC, over every byte including the arrays the caller skips;
then a fault found while parsing, whose discovery only stopped the parse,
not the sum. So a damaged file reads as "checksum mismatch" whatever else
it looks like, and another format version raises
``FormatVersionMismatch`` only if its CRC holds.

Config dataclasses become ``section.field=value`` text through one pair,
``config_text`` and ``config_from_text``; checkpoints, INI files, ``--set``
overrides and the startup echo all share it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import queue
import struct
import threading
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"HDRS"
FORMAT_VERSION = 1
# Bytes per slot of a load's read window, and the most slots in use at once:
# the one being parsed plus those awaiting the CRC helper. On a 2-vCPU Xeon
# four 1 MiB slots loaded the H=48 checkpoint as fast as 8 x 4 MiB or faster,
# in 4 MiB of scratch.
_READ_CHUNK = 1 << 20
_RING_SLOTS = 4
# Largest array name (bytes) and rank a container holds. A load parses each
# header before the CRC is known, so an unchecked rank would let one flipped
# bit read megabytes of dims and multiply them; 32 is numpy 1.x's limit.
_MAX_NAME = 1024
_MAX_RANK = 32


class FormatVersionMismatch(ValueError):
    pass


class Corrupt(ValueError):
    pass


def config_text(cfg, section: str) -> dict:
    """``section.field`` -> value text for every field of the dataclass
    ``cfg``, in field order; tuples are joined with commas."""
    out = {}
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        out[f"{section}.{f.name}"] = ",".join(map(str, v)) if isinstance(v, tuple) else str(v)
    return out


# Field annotations are strings (postponed evaluation); the leading word picks
# the parser, and any other annotation keeps the raw text.
_PARSERS = {"tuple": lambda raw: tuple(int(v) for v in raw.replace(" ", "").split(",")),
            "int": int, "float": float}


def config_from_text(cls, section: str, text: dict):
    """The dataclass ``cls`` built from the ``section.*`` keys of ``text``;
    fields without a key keep their defaults. A key naming no field raises
    ``ValueError``."""
    types = {f.name: str(f.type).split()[0] for f in dataclasses.fields(cls)}
    kw = {}
    for key, raw in text.items():
        sec, _, name = key.partition(".")
        if sec != section:
            continue
        if name not in types:
            raise ValueError(f"unknown key {name!r} for section [{section}]")
        kw[name] = _PARSERS.get(types[name], str)(raw)
    return cls(**kw)


def save_container(path, text: dict, arrays: dict) -> None:
    """Write config text plus named float32 arrays; bit-exact round trip.

    Records go to the temp file as they are built, under a running CRC, so
    no array is copied into one whole-file buffer. If any record fails, the
    temp file is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    body = "".join(f"{k}={v}\n" for k, v in text.items()).encode("utf-8")
    try:
        with open(tmp, "wb") as f:
            crc = 0

            def put(chunk) -> None:
                nonlocal crc
                f.write(chunk)
                crc = zlib.crc32(chunk, crc)

            put(MAGIC + struct.pack("<II", FORMAT_VERSION, len(body)) + body
                + struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                data = np.require(arr, "<f4", "C")  # unlike ascontiguousarray, keeps rank 0
                nb = name.encode("utf-8")
                if len(nb) > _MAX_NAME or data.ndim > _MAX_RANK:
                    raise ValueError(f"array {name[:64]!r}: name over {_MAX_NAME} bytes "
                                     f"or rank over {_MAX_RANK}")
                put(struct.pack("<I", len(nb)) + nb + struct.pack("<I", data.ndim)
                    + struct.pack(f"<{data.ndim}Q", *data.shape))
                put(data)
            f.write(struct.pack("<I", crc & 0xFFFFFFFF))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _SummedReader:
    """Reads a container front to back once while a helper thread chains
    ``zlib.crc32`` over every byte read, in file order.

    Reads go through a window: a ring slot of up to ``_READ_CHUNK`` bytes,
    filled by one ``readinto`` and parsed in place, so a record header costs
    no read of its own and a small array is one copy out of the slot. A slot is
    handed to the helper whole once the parser moves past it and comes back
    to the ring once summed; at most ``_RING_SLOTS`` exist. An array larger
    than a slot is read straight into its own buffer and handed over as its
    own span. No read crosses ``end``, the start of the CRC trailer.
    ``readinto`` and ``crc32`` both release the GIL, so one span is summed
    while the next is read; a file within one slot never starts the helper.
    """

    def __init__(self, f, path, end: int):
        self.f, self.path, self.end = f, path, end
        self.fpos = len(MAGIC)  # file offset of the next byte to read
        self.crc = zlib.crc32(MAGIC)
        # buf[lo:hi] is read and not yet parsed, buf[start:hi] not yet summed,
        # in the slot at offset ``slot`` of the ring (None: an outsized slot);
        # mv is a memoryview of buf
        self.buf = self.mv = self.slot = None
        self.start = self.lo = self.hi = 0
        self._size = min(_READ_CHUNK, end)
        # every slot in one buffer, made before the first array: slots made
        # one by one between the arrays left heap holes that raised a later
        # H=48 restore's peak RSS by about 6 MB
        self._ring = None
        self._work = queue.SimpleQueue()  # (span, slot or None), then None
        self._free = queue.SimpleQueue()  # offsets of slots summed and free to reuse
        self._thread = None

    @property
    def pos(self) -> int:
        """File offset of the next byte to parse."""
        return self.fpos - (self.hi - self.lo)

    def _serve(self) -> None:
        while (item := self._work.get()) is not None:
            self.crc = zlib.crc32(item[0], self.crc)
            if item[1] is not None:
                self._free.put(item[1])

    def _hand_off(self, span, slot=None) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._serve, name="hdrs-crc", daemon=True)
            self._thread.start()
        self._work.put((span, slot))

    def _retire(self) -> None:
        if self.buf is not None:
            self._hand_off(self.mv[self.start:self.hi], self.slot)
            self.buf = self.mv = self.slot = None
            self.start = self.lo = self.hi = 0

    def _fill(self, view) -> None:
        if self.f.readinto(view) != len(view):
            raise Corrupt(f"{self.path}: file shrank while reading")
        self.fpos += len(view)

    def _refill(self, n: int) -> None:
        """Hands the window to the helper and refills it from the file in a
        fresh slot, one of its own if ``n`` bytes would not fit a ring slot,
        with the unparsed rest of the old window at its front."""
        rest = bytes(self.mv[self.lo:self.hi]) if self.hi > self.lo else b""
        self._retire()
        if n > self._size:
            buf, slot, base, size = bytearray(n), None, 0, n
        else:
            if self._ring is None:  # no more slots than the file can fill
                count = min(_RING_SLOTS, -(-self.end // self._size))
                self._ring = bytearray(count * self._size)
                for i in range(count):
                    self._free.put(i * self._size)
            buf, size = self._ring, self._size
            slot = base = self._free.get()
        buf[base:base + len(rest)] = rest
        self.buf, self.mv, self.slot = buf, memoryview(buf), slot
        self.start = self.hi = base + len(rest)
        self.lo = base
        want = min(size - len(rest), self.end - self.fpos)
        self._fill(self.mv[self.hi:self.hi + want])
        self.hi += want

    def take(self, n: int, what: str):
        """Parses past the next ``n`` bytes and returns (buf, at) with them at
        ``buf[at:at + n]``, valid until the next call; ``what`` names them if
        they would run into the trailer."""
        if self.hi - self.lo < n:
            if self.pos + n > self.end:
                raise Corrupt(f"{self.path}: malformed record ({what} past the records)")
            self._refill(n)
        self.lo += n
        return self.buf, self.lo - n

    def array(self, dims, nbytes: int) -> np.ndarray:
        """The next ``nbytes`` (bounds checked by the caller) as a new float32
        array of shape ``dims``: copied from the window, and what the window
        lacks read straight into the array."""
        if self.hi - self.lo < nbytes <= self._size:
            self._refill(nbytes)
        # numpy's allocator, not a bytes object's: small bytes buffers left in
        # the interpreter's arenas made a training process's peak RSS grow
        # with each checkpoint load
        arr = np.empty(dims, "<f4")
        view = memoryview(arr.reshape(-1)).cast("B")  # flat: cast refuses a 0 in a shape
        lo = self.lo
        k = min(nbytes, self.hi - lo)
        if k:
            view[:k] = self.mv[lo:lo + k]
        self.lo = lo + k
        if k < nbytes:
            self._retire()
            self._fill(view[k:])
            self._hand_off(view[k:])
        return arr

    def skip(self, n: int) -> None:
        """Sums the next ``n`` bytes (bounds checked by the caller) without
        keeping them."""
        while n > self.hi - self.lo:
            n -= self.hi - self.lo
            self.lo = self.hi
            self._refill(0)
        self.lo += n

    def close(self) -> int:
        """Sums what is left, stops and joins the helper, and returns the CRC
        of every byte read. Idempotent."""
        if self._thread is None and self.buf is not None:
            self.crc = zlib.crc32(self.mv[self.start:self.hi], self.crc)
            self.buf = self.mv = self.slot = None
        self._retire()
        if self._thread is not None:
            self._work.put(None)
            self._thread.join()
            self._thread = None
        return self.crc


def _parse(r: _SummedReader, keep):
    """(text, arrays) from the records after the magic; every length is
    checked against the records before it is read."""
    path = r.path
    buf, at = r.take(8, "header runs")
    version, text_len = struct.unpack_from("<II", buf, at)
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, "
                                    f"expected {FORMAT_VERSION}")
    buf, at = r.take(text_len + 4, "text runs")
    text = {}
    for line in buf[at:at + text_len].decode("utf-8").splitlines():
        k, _, v = line.partition("=")
        text[k] = v
    (count,) = struct.unpack_from("<I", buf, at + text_len)
    arrays = {}
    for _ in range(count):
        buf, at = r.take(4, "name runs")
        (nlen,) = struct.unpack_from("<I", buf, at)
        if nlen > _MAX_NAME:
            raise Corrupt(f"{path}: malformed record (name runs past {_MAX_NAME} bytes)")
        buf, at = r.take(nlen + 4, "name runs")
        name = buf[at:at + nlen].decode("utf-8")
        (rank,) = struct.unpack_from("<I", buf, at + nlen)
        if rank > _MAX_RANK:
            raise Corrupt(f"{path}: array {name} has rank {rank}")
        buf, at = r.take(8 * rank, f"array {name} dims run")
        dims = struct.unpack_from(f"<{rank}Q", buf, at)
        nbytes = 4 * math.prod(dims)
        if r.pos + nbytes > r.end:
            raise Corrupt(f"{path}: array {name} truncated")
        if max(dims, default=0) > r.end:  # an empty array with an absurd axis
            raise Corrupt(f"{path}: array {name} has dims {dims}")
        if keep is None or keep(name):
            arrays[name] = r.array(dims, nbytes)
        else:
            r.skip(nbytes)
    return text, arrays


def load_container(path, keep=None):
    """Return (text dict, ordered name->float32 array dict).

    ``keep``, if given, is a predicate on array names: the arrays it rejects
    are covered by the CRC check but never copied out of the file.

    The file is read once, front to back, by ``_SummedReader``; a helper
    thread sums each span while the next one is read. A fault found while
    parsing (another format version, a malformed record) stops the parse,
    and the rest of the file is only summed. Nothing is returned and no
    fault is raised before the CRC has been compared with the trailer, and
    the first that applies is raised: ``Corrupt`` if the file shrank while
    reading, ``Corrupt`` ("checksum mismatch") if the CRC fails, then the
    parse fault (``FormatVersionMismatch`` or ``Corrupt``). The helper is
    joined before this returns or raises, whatever is raised, ``keep``'s
    own errors included.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 12 or f.read(4) != MAGIC:
            raise Corrupt(f"{path}: not a checkpoint container")
        r = _SummedReader(f, path, size - 4)
        try:
            try:
                text, arrays = _parse(r, keep)
                fault = None
            except (Corrupt, FormatVersionMismatch) as e:
                # a file that shrank raises again below, as no byte is left
                fault = e
            except (struct.error, UnicodeDecodeError) as e:
                fault = Corrupt(f"{path}: malformed record ({e})")
            r.skip(r.end - r.pos)
            crc = r.close()
            trailer = f.read(4)
            if len(trailer) != 4:
                raise Corrupt(f"{path}: file shrank while reading")
            if crc != struct.unpack("<I", trailer)[0]:
                raise Corrupt(f"{path}: checksum mismatch (truncated or damaged)")
        finally:
            r.close()
    if fault is not None:
        raise fault
    return text, arrays
