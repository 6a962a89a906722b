#!/usr/bin/env python3
"""Deterministic generator for the fuzz regression corpus.

Each file is a malformed (or edge-case) input that once tripped — or is
designed to trip — the untrusted-side parsers: the gzip decompressor, the
tar reader, and the layer analyzer's whiteout handling. The corpus is
committed; fuzz_test replays every file on each run so the failure modes
stay covered forever. Re-running this script must reproduce the files
byte-for-byte (no timestamps, no randomness).

Usage: python3 make_corpus.py [output_dir]
"""

import gzip
import io
import os
import struct
import sys
import tarfile
import zlib


def tar_bytes(build):
    """Serialize a tar archive built by `build(tarfile.TarFile)`."""
    buf = io.BytesIO()
    # GNU format matches what docker layer tars in the wild mostly use.
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.GNU_FORMAT) as tf:
        build(tf)
    return buf.getvalue()


def add_file(tf, name, data=b"", mode=0o644):
    info = tarfile.TarInfo(name)
    info.size = len(data)
    info.mode = mode
    info.mtime = 0
    tf.addfile(info, io.BytesIO(data))


def gzip_bytes(data):
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(data)
    return buf.getvalue()


def truncated_gzip_member():
    """A valid member with the tail (part of payload + CRC/ISIZE) cut off."""
    whole = gzip_bytes(b"x" * 4096)
    return whole[: len(whole) // 2]


def bad_crc_gzip_member():
    """Valid deflate stream, corrupted CRC32 trailer."""
    whole = bytearray(gzip_bytes(b"docker layer bytes " * 64))
    whole[-5] ^= 0xFF  # flip a CRC byte, leave ISIZE alone
    return bytes(whole)


def with_isize(member, isize):
    """The same member with its ISIZE trailer field replaced."""
    return member[:-4] + struct.pack("<I", isize & 0xFFFFFFFF)


def layer_text(size):
    """Deterministic, moderately compressible text of exactly `size` bytes."""
    lines = b"".join(b"usr/lib/file-%06d.so mode=0644\n" % i
                     for i in range(size // 16 + 1))
    return lines[:size]


def isize_small_gzip_member():
    """300000 bytes that claim an ISIZE of 100: the decoder's output buffer
    must grow well past its first size, then reject the ISIZE."""
    return with_isize(gzip_bytes(layer_text(300000)), 100)


def isize_large_gzip_member():
    """4096 bytes that claim ISIZE 0xFFFFFFFF: decoding must not size its
    buffer from the claim, and the mismatch is rejected."""
    return with_isize(gzip_bytes(layer_text(4096)), 0xFFFFFFFF)


def isize_over_cap_gzip_member():
    """20000 bytes that claim 2^31 - 1: replayed with caps on both sides of
    20000 (fits, then ISIZE rejects; over, then the cap rejects)."""
    return with_isize(gzip_bytes(layer_text(20000)), 0x7FFFFFFF)


def isize_zero_gzip_member():
    """70000 bytes that claim ISIZE 0 (a claim of an empty layer)."""
    return with_isize(gzip_bytes(layer_text(70000)), 0)


def torn_longname_tar():
    """A GNU long-name ('L') header whose payload is cut mid-name.

    The reader sees typeflag L promising 300 bytes of name, but the
    archive ends inside the name payload — no data blocks, no terminator.
    """
    long_name = ("deeply/" * 42 + "leaf").encode()
    whole = tar_bytes(lambda tf: add_file(tf, long_name.decode(), b"payload"))
    # The GNU long-name member is the first 512-byte header + name blocks;
    # cut inside the name payload block.
    return whole[: 512 + 100]


def zero_length_ustar_entry():
    """A ustar header block whose name field is entirely NUL.

    Structurally a 'present' header (checksum valid) describing a nameless,
    zero-size regular file — degenerate but seen from sloppy writers. The
    reader must neither crash nor loop.
    """
    header = bytearray(512)
    # mode/uid/gid/size/mtime as zero octal fields.
    header[100:108] = b"0000644\x00"
    header[108:116] = b"0000000\x00"
    header[116:124] = b"0000000\x00"
    header[124:136] = b"00000000000\x00"
    header[136:148] = b"00000000000\x00"
    header[156] = ord("0")  # typeflag: regular file
    header[257:263] = b"ustar\x00"
    header[263:265] = b"00"
    # Checksum over the header with the checksum field spaced out.
    header[148:156] = b" " * 8
    checksum = sum(header)
    header[148:156] = ("%06o" % checksum).encode() + b"\x00 "
    return bytes(header) + b"\x00" * 1024  # end-of-archive marker


def whiteout_edges_tar():
    """Every `.wh.` whiteout spelling the analyzer must take a stance on:
    a plain whiteout, an opaque-directory marker, a bare `.wh.` name, a
    whiteout of a whiteout, and a normal file that merely contains `.wh.`
    mid-name (NOT a whiteout)."""

    def build(tf):
        add_file(tf, "etc/config", b"kept")
        add_file(tf, "etc/.wh.removed", b"")
        add_file(tf, "opt/.wh..wh..opq", b"")
        add_file(tf, ".wh.", b"")
        add_file(tf, "tmp/.wh..wh.double", b"")
        add_file(tf, "srv/file.wh.inside", b"not a whiteout")

    return tar_bytes(build)


def shard_run_bytes(shard_count, shard_index, entries):
    """Encode a dockmine::shard spill run (run_format.h, DMSHRUN1 v1).

    entries: list of (key, count, size, first_layer, type, multi_layer),
    sorted strictly ascending by key, keys in the declared partition.
    """
    payload = b"".join(
        struct.pack("<QQQIBBH", key, count, size, first_layer, ftype,
                    1 if multi else 0, 0)
        for key, count, size, first_layer, ftype, multi in entries
    )
    header = struct.pack(
        "<8sIIIIQ", b"DMSHRUN1", 1, shard_count, shard_index,
        zlib.crc32(payload) & 0xFFFFFFFF, len(entries)
    )
    return header + payload


def valid_shard_run():
    """A well-formed 3-entry run for shard 2 of 4 (keys' top bits = 0b10).

    fuzz_test asserts the exact fold of this run: 16 file instances over 3
    distinct contents, 3*10 + 1*0 + 12*4096 = 49182 total bytes.
    """
    base = 0x8000000000000000
    return shard_run_bytes(4, 2, [
        (base + 0x01, 3, 10, 0, 1, True),
        (base + 0x07, 1, 0, 2, 0, False),
        (base + 0x100, 12, 4096, 1, 2, True),
    ])


def truncated_shard_run():
    """The valid run cut mid-entry: the size/count check must reject it
    before the checksum is even consulted."""
    return valid_shard_run()[:-9]


def bitflipped_shard_run():
    """The valid run with one payload bit flipped (a count byte): structure
    still parses, the CRC must catch it — a damaged run can fail a merge but
    never skew one."""
    whole = bytearray(valid_shard_run())
    whole[32 + 8] ^= 0x04  # entry 0's count field
    return bytes(whole)


def wire_frame(kind, payload):
    """Encode a coordinator<->worker wire frame (core/wire.h, "DMWF"):
    magic, kind, zero flags/reserved, payload length, payload CRC32."""
    return (b"DMWF" + struct.pack("<BBHII", kind, 0, 0, len(payload),
                                  zlib.crc32(payload) & 0xFFFFFFFF)
            + payload)


def valid_wire_frame():
    """A well-formed JSON control frame (a worker heartbeat)."""
    return wire_frame(1, b'{"type":"heartbeat","worker":3,"lease":1,"obs":{}}')


def truncated_wire_frame():
    """The valid frame cut mid-payload: the reassembler must keep waiting
    for bytes (a TCP read boundary), never deliver or poison."""
    return valid_wire_frame()[:24]


def bitflipped_wire_frame():
    """The valid frame with one payload bit flipped: header parses, the
    CRC must reject it and poison the stream — a flipped frame may cost
    the connection (and its lease) but can never smuggle altered bytes."""
    whole = bytearray(valid_wire_frame())
    whole[16 + 9] ^= 0x10
    return bytes(whole)


SERVE_REQUEST = (b'{"type":"query","id":7,"q":"ecdf","name":"layers.cls",'
                 b'"quantile":0.5}')


def valid_serve_request():
    """A well-formed serve-daemon query frame (core/serve protocol): the
    richest request shape (ecdf + quantile), canonical field order so the
    round-trip dump comparison in fuzz_test is byte-exact."""
    return wire_frame(1, SERVE_REQUEST)


def truncated_serve_request():
    """The valid request cut mid-payload: the daemon's session loop must
    treat it as a read boundary and keep waiting (until slowloris)."""
    return valid_serve_request()[:30]


def bitflipped_serve_request():
    """The valid request with one payload bit flipped: CRC rejection must
    poison only that connection, never crash the daemon."""
    whole = bytearray(valid_serve_request())
    whole[16 + 20] ^= 0x08
    return bytes(whole)


def bad_document_serve_request():
    """A perfectly framed request whose JSON is valid but whose content is
    not a request (unknown selector): frame layer accepts, the total
    request parser must reject with kCorrupt — the error-response path."""
    return wire_frame(1, b'{"type":"query","id":3,"q":"drop-tables"}')


SERVE_METRICS_REQUEST = (b'{"type":"query","id":11,"q":"metrics",'
                         b'"name":"dockmine_serve_requests_total",'
                         b'"op":"rate","window_ms":60000}')


def valid_serve_metrics_request():
    """A well-formed telemetry query frame (query metrics op=rate):
    canonical field order matches request_to_json so the round-trip dump
    comparison in fuzz_test is byte-exact."""
    return wire_frame(1, SERVE_METRICS_REQUEST)


def truncated_serve_metrics_request():
    """The metrics request cut mid-payload: a read boundary, not an
    error — the session loop keeps waiting."""
    return valid_serve_metrics_request()[:40]


def bitflipped_serve_metrics_request():
    """The metrics request with one payload bit flipped: the frame CRC
    must reject it and poison only that connection."""
    whole = bytearray(valid_serve_metrics_request())
    whole[16 + 20] ^= 0x08
    return bytes(whole)


CORPUS = {
    "gzip_truncated_member.bin": truncated_gzip_member,
    "gzip_bad_crc.bin": bad_crc_gzip_member,
    # Members whose ISIZE trailer lies (the decoder presizes from it).
    "gzip_isize_small.bin": isize_small_gzip_member,
    "gzip_isize_large.bin": isize_large_gzip_member,
    "gzip_isize_over_cap.bin": isize_over_cap_gzip_member,
    "gzip_isize_zero.bin": isize_zero_gzip_member,
    "tar_torn_longname.bin": torn_longname_tar,
    "tar_zero_length_ustar.bin": zero_length_ustar_entry,
    "tar_whiteout_edges.bin": whiteout_edges_tar,
    # The whiteout tar again, as a gzip'd layer blob for the full
    # gunzip -> untar -> classify path.
    "layer_whiteout_edges.bin": lambda: gzip_bytes(whiteout_edges_tar()),
    # Shard spill runs (dockmine::shard run_format): one good, two damaged.
    "shard_run_valid.bin": valid_shard_run,
    "shard_run_truncated.bin": truncated_shard_run,
    "shard_run_bitflip.bin": bitflipped_shard_run,
    # Coordinator<->worker wire frames (core/wire): good, torn, damaged.
    "wire_frame_valid.bin": valid_wire_frame,
    "wire_frame_truncated.bin": truncated_wire_frame,
    "wire_frame_bitflip.bin": bitflipped_wire_frame,
    # Serve-daemon request frames (core/serve): good, torn, damaged, and a
    # well-framed non-request.
    "serve_request_valid.bin": valid_serve_request,
    "serve_request_truncated.bin": truncated_serve_request,
    "serve_request_bitflip.bin": bitflipped_serve_request,
    "serve_request_bad_doc.bin": bad_document_serve_request,
    # Telemetry query frames (query metrics): good, torn, damaged.
    "serve_request_metrics_valid.bin": valid_serve_metrics_request,
    "serve_request_metrics_truncated.bin": truncated_serve_metrics_request,
    "serve_request_metrics_bitflip.bin": bitflipped_serve_metrics_request,
}


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)
    for name, gen in sorted(CORPUS.items()):
        data = gen()
        path = os.path.join(out_dir, name)
        with open(path, "wb") as f:
            f.write(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
