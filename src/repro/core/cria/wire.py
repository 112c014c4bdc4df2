"""The checkpoint image wire format.

What actually crosses the link during the transfer stage: a framed,
checksummed encoding of the image — header magic, a JSON metadata
section (identity, per-process region digests, fd descriptions, binder
references, thread contexts, the record-log index), and a payload
section carrying the region contents.  The guest verifies the frame
checksum and every region digest *before* attempting restore, so a
corrupted transfer fails loudly instead of resurrecting a broken app.

The live Python object graph (``app_payload``) rides as the region
payloads' stand-in, exactly as CRIU moves raw memory pages out of band
from its image metadata; see DESIGN.md.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Any, Dict, List, Tuple

from repro.core.cria.errors import CheckpointError
from repro.core.cria.image import CheckpointImage


MAGIC = b"FLUXIMG1"
_HEADER = struct.Struct(">8sII")    # magic, metadata length, payload length

#: Frame format version.  Version 2 records a per-region ``(offset,
#: length)`` table in the metadata section and concatenates region
#: payloads directly; version 1 joined payloads with ``b"\x00"``, which
#: is ambiguous when a payload itself contains NULs.
WIRE_VERSION = 2


class WireError(CheckpointError):
    """Frame corruption or version mismatch."""


def _describe_value(value: Any) -> Any:
    """JSON-safe description of a recorded argument or result."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_describe_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _describe_value(v) for k, v in value.items()}
    return {"__object__": type(value).__name__, "repr": repr(value)}


def image_metadata(image: CheckpointImage) -> Dict[str, Any]:
    """The JSON-encodable metadata section.

    Region entries gain their payload ``(offset, length)`` into the
    frame's payload section when framed by :func:`serialize_image`;
    here they carry identity and digests only.
    """
    return {
        "version": WIRE_VERSION,
        "package": image.package,
        "source_device": image.source_device,
        "source_kernel": image.source_kernel,
        "android_version": image.android_version,
        "api_level": image.api_level,
        "checkpoint_time": image.checkpoint_time,
        "processes": [{
            "name": proc.name,
            "virtual_pid": proc.virtual_pid,
            "uid": proc.uid,
            "regions": [{
                "name": region.name,
                "kind": region.kind.value,
                "size": region.size,
                "digest": region.content_hash(),
            } for region in proc.regions],
            "threads": [{"tid": t.tid, "name": t.name,
                         "context": t.context} for t in proc.threads],
            "fds": [{"fd": f.fd, "description": f.description}
                    for f in proc.fds],
            "binder_refs": [{
                "handle": r.handle, "kind": r.kind.value,
                "service_name": r.service_name, "label": r.label,
            } for r in proc.binder_refs],
            "driver_state": proc.driver_state,
        } for proc in image.processes],
        "record_log": [{
            "seq": entry.seq,
            "interface": entry.interface,
            "method": entry.method,
            "args": _describe_value(entry.args),
        } for entry in image.record_log],
    }


def serialize_image(image: CheckpointImage) -> bytes:
    """Frame the image for the wire.

    Region payloads are concatenated directly into the payload section;
    each region's metadata entry records its exact ``(offset, length)``
    so the receiver reconstructs every payload byte-for-byte even when
    payloads contain NULs or are empty.
    """
    metadata_dict = image_metadata(image)
    payload_parts: List[bytes] = []
    offset = 0
    for proc, proc_meta in zip(image.processes, metadata_dict["processes"]):
        for region, region_meta in zip(proc.regions, proc_meta["regions"]):
            region_meta["offset"] = offset
            region_meta["length"] = len(region.payload)
            payload_parts.append(region.payload)
            offset += len(region.payload)
    metadata = json.dumps(metadata_dict,
                          separators=(",", ":")).encode("utf-8")
    payload = b"".join(payload_parts)
    body = _HEADER.pack(MAGIC, len(metadata), len(payload)) \
        + metadata + payload
    return body + hashlib.sha256(body).digest()


def _verify_and_split(blob: bytes) -> Tuple[Dict[str, Any], bytes]:
    """Checksum-verify a frame; return (metadata, payload section)."""
    if len(blob) < _HEADER.size + 32:
        raise WireError("frame truncated")
    body, checksum = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise WireError("frame checksum mismatch (corrupt transfer)")
    magic, metadata_len, payload_len = _HEADER.unpack_from(body)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    expected = _HEADER.size + metadata_len + payload_len
    if len(body) != expected:
        raise WireError(f"frame length {len(body)} != declared {expected}")
    metadata_bytes = body[_HEADER.size:_HEADER.size + metadata_len]
    try:
        metadata = json.loads(metadata_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"metadata undecodable: {error}") from error
    if not isinstance(metadata, dict):
        raise WireError("metadata is not a JSON object")
    if metadata.get("version") != WIRE_VERSION:
        raise WireError(f"unsupported image version {metadata.get('version')}")
    _check_schema(metadata)
    return metadata, body[_HEADER.size + metadata_len:]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_schema(metadata: Dict[str, Any]) -> None:
    """Reject metadata missing a field the decoders below index.

    The checksum only proves the frame arrived as sent; a sender with a
    bug (or a hostile one) can still seal malformed metadata, which must
    fail here as :class:`WireError`, not as a ``KeyError`` or
    ``TypeError`` deep inside restore.
    """
    if not isinstance(metadata.get("package"), str):
        raise WireError("metadata 'package' is not a string")
    processes = metadata.get("processes")
    if not isinstance(processes, list):
        raise WireError("metadata 'processes' is not a list")
    for proc in processes:
        if not (isinstance(proc, dict) and _is_int(proc.get("virtual_pid"))
                and isinstance(proc.get("regions"), list)):
            raise WireError("metadata process entry needs an int "
                            "'virtual_pid' and a list 'regions'")
        for region in proc["regions"]:
            if not (isinstance(region, dict)
                    and isinstance(region.get("name"), str)
                    and isinstance(region.get("digest"), str)
                    and _is_int(region.get("offset"))
                    and _is_int(region.get("length"))):
                raise WireError("metadata region entry needs a str 'name' "
                                "and 'digest' and int 'offset' and 'length'")


def verify_and_decode(blob: bytes) -> Dict[str, Any]:
    """Checksum-verify a frame and return its metadata section.

    Raises :class:`WireError` on any corruption; restore must not be
    attempted from a frame that fails here.
    """
    metadata, _ = _verify_and_split(blob)
    return metadata


def region_payloads(blob: bytes) -> Dict[Tuple[int, str], bytes]:
    """Reconstruct every region payload exactly from a verified frame.

    Returns ``(virtual_pid, region_name) -> payload bytes``, sliced by
    the per-region offset/length table — NUL bytes inside payloads are
    preserved verbatim.
    """
    metadata, payload = _verify_and_split(blob)
    out: Dict[Tuple[int, str], bytes] = {}
    for proc in metadata["processes"]:
        for region in proc["regions"]:
            offset, length = region["offset"], region["length"]
            if offset < 0 or length < 0 or offset + length > len(payload):
                raise WireError(
                    f"region {region['name']!r} payload slice "
                    f"[{offset}:{offset + length}] outside payload section "
                    f"of {len(payload)} bytes")
            out[(proc["virtual_pid"], region["name"])] = \
                payload[offset:offset + length]
    return out


def verify_against_image(blob: bytes, image: CheckpointImage) -> None:
    """Guest-side pre-restore check: the frame matches the image.

    Every region digest in the frame must equal the digest of the region
    about to be restored — the moral equivalent of CRIU verifying its
    page checksums before injecting them — and the frame's payload
    slices must reproduce each region's payload byte-for-byte.
    """
    metadata = verify_and_decode(blob)
    if metadata["package"] != image.package:
        raise WireError(
            f"frame is for {metadata['package']!r}, not {image.package!r}")
    wire_digests = {
        (proc["virtual_pid"], region["name"]): region["digest"]
        for proc in metadata["processes"] for region in proc["regions"]}
    payloads = region_payloads(blob)
    for proc in image.processes:
        for region in proc.regions:
            key = (proc.virtual_pid, region.name)
            if key not in wire_digests:
                raise WireError(f"region {region.name!r} missing from frame")
            if wire_digests[key] != region.content_hash():
                raise WireError(
                    f"region {region.name!r} digest mismatch "
                    "(memory corrupted in transit)")
            if payloads[key] != region.payload:
                raise WireError(
                    f"region {region.name!r} payload mismatch "
                    "(framing reconstructed the wrong bytes)")
