#!/usr/bin/env python3
"""Print one line per section of an aqsim checkpoint image.

Each line is "<section name> <sha256 of the section body>", in file
order. The format is the AQSCKPT1 container of src/ckpt/ckpt_io.hh,
read little-endian. Two engines' images of one boundary hold the same
simulated state when their lines agree outside the "meta" section
(engine name, state hash) and the "engine" section (engine-private
state): CI compares them that way.

Usage:
    ckpt_sections.py IMAGE.aqc
"""

import hashlib
import struct
import sys

MAGIC = b"AQSCKPT1"


def sections(data: bytes):
    if data[:8] != MAGIC:
        raise ValueError("not an aqsim checkpoint image")
    pos = 8 + 4 + 4  # magic, version, endian tag
    (payload_len,) = struct.unpack_from("<Q", data, pos)
    pos += 8 + 4  # payload length, payload CRC
    end = pos + payload_len
    while pos < end:
        (name_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (body_len,) = struct.unpack_from("<Q", data, pos)
        pos += 8 + 4  # body length, body CRC
        yield name, data[pos:pos + body_len]
        pos += body_len


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1], "rb") as f:
        for name, body in sections(f.read()):
            print(name, hashlib.sha256(body).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
