"""Binary checkpoint container.

Little-endian layout:

    magic "HDRS" | u32 format version | u32 text length | UTF-8 key=value
    lines | u32 array count | per array: u32 name length, name bytes,
    u32 rank, u64 dims..., raw float32 data | u32 CRC32

The trailing CRC32 covers every preceding byte; a truncated or bit-flipped
file fails closed with ``Corrupt`` before any state is handed back. Writes
go to a temp file in the target directory followed by an atomic rename.

Config dataclasses become ``section.field=value`` text through one pair,
``config_text`` and ``config_from_text``; checkpoints, INI files, ``--set``
overrides and the startup echo all share it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"HDRS"
FORMAT_VERSION = 1
# Bytes read per step of the CRC pass over a container file.
_READ_CHUNK = 4 << 20


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
    no array is copied into one whole-file buffer.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    body = "".join(f"{k}={v}\n" for k, v in text.items()).encode("utf-8")
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
            put(struct.pack("<I", len(nb)) + nb + struct.pack("<I", data.ndim)
                + struct.pack(f"<{data.ndim}Q", *data.shape))
            put(data)
        f.write(struct.pack("<I", crc & 0xFFFFFFFF))
    os.replace(tmp, path)


def load_container(path, keep=None):
    """Return (text dict, ordered name->float32 array dict).

    ``keep``, if given, is a predicate on array names: the arrays it rejects
    are covered by the CRC check but never copied out of the file.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 12 or f.read(4) != MAGIC:
            raise Corrupt(f"{path}: not a checkpoint container")
        end = size - 4  # every record read stops short of the CRC trailer
        buf = memoryview(bytearray(min(_READ_CHUNK, end)))
        crc, pos = zlib.crc32(MAGIC), 4
        while pos < end:
            n = f.readinto(buf[:min(len(buf), end - pos)])
            if not n:
                raise Corrupt(f"{path}: file shrank while reading")
            crc = zlib.crc32(buf[:n], crc)
            pos += n
        if crc & 0xFFFFFFFF != struct.unpack("<I", f.read(4))[0]:
            raise Corrupt(f"{path}: checksum mismatch (truncated or damaged)")
        f.seek(4)
        version, text_len = struct.unpack("<II", f.read(8))
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"{path}: format version {version}, "
                                        f"expected {FORMAT_VERSION}")
        text, arrays = {}, {}
        pos = 16 + text_len  # through the array count
        try:
            if pos > end:
                raise Corrupt(f"{path}: malformed record (text runs past the records)")
            for line in f.read(text_len).decode("utf-8").splitlines():
                k, _, v = line.partition("=")
                text[k] = v
            (count,) = struct.unpack("<I", f.read(4))
            for _ in range(count):
                # each length is checked against the records before it is read
                (nlen,) = struct.unpack("<I", f.read(4))
                pos += 8 + nlen
                if pos > end:
                    raise Corrupt(f"{path}: malformed record (name runs past the records)")
                head = f.read(nlen + 4)
                name = head[:nlen].decode("utf-8")
                (rank,) = struct.unpack_from("<I", head, nlen)
                pos += 8 * rank
                if pos > end:
                    raise Corrupt(f"{path}: array {name} dims run past the records")
                dims = struct.unpack(f"<{rank}Q", f.read(8 * rank))
                nbytes = 4 * math.prod(dims)
                if pos + nbytes > end:
                    raise Corrupt(f"{path}: array {name} truncated")
                if max(dims, default=0) > end:  # an empty array with an absurd axis
                    raise Corrupt(f"{path}: array {name} has dims {dims}")
                if keep is None or keep(name):
                    arr = np.empty(dims, "<f4")
                    if f.readinto(memoryview(arr.reshape(-1)).cast("B")) != nbytes:
                        raise Corrupt(f"{path}: array {name} truncated")
                    arrays[name] = arr
                else:
                    f.seek(nbytes, os.SEEK_CUR)
                pos += nbytes
        except (struct.error, UnicodeDecodeError) as e:
            raise Corrupt(f"{path}: malformed record ({e})") from None
    return text, arrays
