"""Binary checkpoint container.

Little-endian layout:

    magic "HDRS" | u32 format version | u32 text length | UTF-8 key=value
    lines | u32 array count | per array: u32 name length, name bytes,
    u32 rank, u64 dims..., raw float32 data | u32 CRC32

The trailing CRC32 covers every preceding byte; a truncated or bit-flipped
file fails closed with ``Corrupt`` before any state is handed back. Writes
go to a temp file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"HDRS"
FORMAT_VERSION = 1


class FormatVersionMismatch(ValueError):
    pass


class Corrupt(ValueError):
    pass


def save_container(path, text: dict, arrays: dict) -> None:
    """Write config text plus named float32 arrays; bit-exact round trip."""
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    body = "".join(f"{k}={v}\n" for k, v in text.items()).encode("utf-8")
    chunks.append(struct.pack("<I", len(body)))
    chunks.append(body)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}Q", *data.shape))
        chunks.append(data.tobytes())
    blob = b"".join(chunks)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_container(path):
    """Return (text dict, ordered name->float32 array dict)."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise Corrupt(f"{path}: not a checkpoint container")
    records = memoryview(blob)[:-4]  # every read stops short of the CRC trailer
    stored = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(records) & 0xFFFFFFFF != stored:
        raise Corrupt(f"{path}: checksum mismatch (truncated or damaged)")
    version = struct.unpack_from("<I", records, 4)[0]
    if version != FORMAT_VERSION:
        raise FormatVersionMismatch(f"{path}: format version {version}, "
                                    f"expected {FORMAT_VERSION}")
    pos = 8
    text, arrays = {}, {}
    try:
        (text_len,) = struct.unpack_from("<I", records, pos)
        pos += 4
        for line in bytes(records[pos:pos + text_len]).decode("utf-8").splitlines():
            k, _, v = line.partition("=")
            text[k] = v
        pos += text_len
        (count,) = struct.unpack_from("<I", records, pos)
        pos += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", records, pos)
            pos += 4
            name = bytes(records[pos:pos + nlen]).decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", records, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}Q", records, pos)
            pos += 8 * rank
            size = math.prod(dims)
            if pos + 4 * size > len(records):
                raise Corrupt(f"{path}: array {name} truncated")
            arrays[name] = np.frombuffer(records, "<f4", size, pos).reshape(dims).copy()
            pos += 4 * size
    except (struct.error, UnicodeDecodeError) as e:
        raise Corrupt(f"{path}: malformed record ({e})") from None
    return text, arrays
