"""Binary checkpoint container, format 2.

Little-endian layout:

    magic "HDRS" | u32 format version | text section | parameter section |
    moment section

where each section is ``u64 body length | body | u32 CRC32(body)``. The
text body is UTF-8 key=value lines. An array body is a u32 array count,
then per array: u32 name length, name bytes, u32 rank, u64 dims, zero
padding to a multiple of 64 bytes from the body start, raw float32 data.

A load reads only the sections it is asked for, each whole into one buffer
after its length has been checked against the bytes left in the file, and
compares the section's CRC before parsing anything in it. So every byte a
load returns has been checked, and a damaged section fails closed with
``Corrupt``. A params-only load (``restore``, ``evaluate``) stops after the
parameter section: the moments are neither read nor checked. A full load
(``train --resume``) checks every section and that the file ends after the
last one. A file of another format version, version 1 included, raises
``FormatVersionMismatch`` before any section is read. Writes go to a temp
file in the target directory followed by an atomic rename.

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
FORMAT_VERSION = 2
# Array data starts at a multiple of this many bytes from its section's body,
# as NPY aligns its header, so the arrays a load returns are aligned views.
_ALIGN = 64
# Largest array name (bytes) and rank a container holds. A rank flipped under
# a recomputed CRC would otherwise multiply megabytes of dims; 32 is numpy
# 1.x's limit.
_MAX_NAME = 1024
_MAX_RANK = 32
_ARRAY_SECTIONS = ("parameter", "moment")


class FormatVersionMismatch(ValueError):
    pass


class Corrupt(ValueError):
    pass


def config_text(cfg, section: str) -> dict:
    """``section.field`` -> value text for every field of the dataclass
    ``cfg``, in field order."""
    return {f"{section}.{f.name}": str(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


# Field annotations are strings (postponed evaluation); the leading word picks
# the parser, and any other annotation keeps the raw text.
_PARSERS = {"int": int, "float": float}


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


def _array_section(arrays: dict):
    """(body length, body chunks) of the array section holding ``arrays``;
    each array is converted to ``<f4`` only when its chunk is reached."""
    heads, pos = [], 4
    for name, arr in arrays.items():
        nb, shape = name.encode("utf-8"), np.shape(arr)
        if len(nb) > _MAX_NAME or len(shape) > _MAX_RANK:
            raise ValueError(f"array {name[:64]!r}: name over {_MAX_NAME} bytes "
                             f"or rank over {_MAX_RANK}")
        head = struct.pack(f"<I{len(nb)}sI{len(shape)}Q", len(nb), nb, len(shape), *shape)
        head += bytes(-(pos + len(head)) % _ALIGN)
        heads.append(head)
        pos += len(head) + 4 * math.prod(shape)

    def chunks():
        yield struct.pack("<I", len(arrays))
        for head, arr in zip(heads, arrays.values()):
            yield head
            yield np.require(arr, "<f4", "C")  # unlike ascontiguousarray, keeps rank 0

    return pos, chunks()


def _write_section(f, length: int, chunks) -> None:
    f.write(struct.pack("<Q", length))
    crc = 0
    for chunk in chunks:
        f.write(chunk)
        crc = zlib.crc32(chunk, crc)
    f.write(struct.pack("<I", crc))


def save_container(path, text: dict, arrays: dict, moments: dict | None = None) -> None:
    """Write config text, ``arrays`` as the parameter section and ``moments``
    (none if ``None``) as the moment section; bit-exact round trip.

    Each array goes to the temp file as it is reached, under its section's
    running CRC, so no array is copied into one whole-section buffer. If
    anything fails, the temp file is removed and the error re-raised.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    body = "".join(f"{k}={v}\n" for k, v in text.items()).encode("utf-8")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC + struct.pack("<I", FORMAT_VERSION))
            _write_section(f, len(body), [body])
            for section in (arrays, moments or {}):
                _write_section(f, *_array_section(section))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_section(f, path, size: int, what: str) -> np.ndarray:
    """The body of the section at ``f``'s position, as uint8, once its CRC
    holds; ``size`` is the file's size when opened."""
    left = size - f.tell()
    if left < 12:
        raise Corrupt(f"{path}: {what} section missing (file truncated)")
    head = f.read(8)
    if len(head) != 8:
        raise Corrupt(f"{path}: file shrank while reading")
    (n,) = struct.unpack("<Q", head)
    if n > left - 12:
        raise Corrupt(f"{path}: {what} section of {n} bytes runs past the file")
    body = np.empty(n, np.uint8)
    if f.readinto(body) != n or len(crc := f.read(4)) != 4:
        raise Corrupt(f"{path}: file shrank while reading")
    if zlib.crc32(body) != struct.unpack("<I", crc)[0]:
        raise Corrupt(f"{path}: {what} section checksum mismatch (truncated or damaged)")
    return body


def _parse_arrays(path, body: np.ndarray, out: dict) -> None:
    """Adds the arrays of a checked section body to ``out``, as float32
    views of ``body``; every length is checked against the body."""
    n = len(body)
    (count,) = struct.unpack_from("<I", body)
    at = 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", body, at)
        if nlen > min(_MAX_NAME, n - at - 8):
            raise Corrupt(f"{path}: malformed record (name runs past the section)")
        name = body[at + 4:at + 4 + nlen].tobytes().decode("utf-8")
        (rank,) = struct.unpack_from("<I", body, at + 4 + nlen)
        if rank > _MAX_RANK:
            raise Corrupt(f"{path}: array {name} has rank {rank}")
        dims = struct.unpack_from(f"<{rank}Q", body, at + 8 + nlen)
        at += 8 + nlen + 8 * rank
        at += -at % _ALIGN
        nbytes = 4 * math.prod(dims)
        if at + nbytes > n:
            raise Corrupt(f"{path}: array {name} truncated")
        if max(dims, default=0) > n:  # an empty array with an absurd axis
            raise Corrupt(f"{path}: array {name} has dims {dims}")
        out[name] = body[at:at + nbytes].view("<f4").reshape(dims)
        at += nbytes


def load_container(path, sections: int = 2):
    """Return (text dict, ordered name->float32 array dict) from the text
    section and the first ``sections`` array sections: 2 reads the
    parameters and the moments, 1 the parameters only.

    The returned arrays are aligned, writeable views of one buffer per
    section. ``FormatVersionMismatch`` is raised for another format version;
    ``Corrupt`` for a section that runs past the file, fails its CRC or holds
    a malformed record, for a file that shrinks while read, and, on a load
    of both array sections, for bytes after the moment section.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if len(head) != 8 or head[:4] != MAGIC:
            raise Corrupt(f"{path}: not a checkpoint container")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != FORMAT_VERSION:
            raise FormatVersionMismatch(f"{path}: format version {version}, "
                                        f"expected {FORMAT_VERSION}")
        try:
            lines = _read_section(f, path, size, "text").tobytes().decode("utf-8")
            text = dict(line.partition("=")[::2] for line in lines.splitlines())
            arrays = {}
            for what in _ARRAY_SECTIONS[:sections]:
                _parse_arrays(path, _read_section(f, path, size, what), arrays)
        except (struct.error, UnicodeDecodeError) as e:
            raise Corrupt(f"{path}: malformed record ({e})") from None
        if sections >= len(_ARRAY_SECTIONS) and f.tell() != size:
            raise Corrupt(f"{path}: bytes after the moment section" if f.read(1)
                          else f"{path}: file shrank while reading")
    return text, arrays
