"""The checkpoint-image wire format: framing, checksums, corruption."""

import json

import pytest

from repro.android.app.notification import Notification
from repro.core.cria import checkpoint_app, prepare_app
from repro.core.cria.wire import (
    WIRE_VERSION,
    WireError,
    image_metadata,
    region_payloads,
    serialize_image,
    verify_against_image,
    verify_and_decode,
)
from tests.conftest import DEMO_PACKAGE, launch_demo


@pytest.fixture
def image(device, demo_thread):
    nm = demo_thread.context.get_system_service("notification")
    nm.notify(1, Notification("wire", "test"))
    prepare_app(device, DEMO_PACKAGE)
    return checkpoint_app(device, DEMO_PACKAGE)


class TestFraming:
    def test_round_trip(self, image):
        blob = serialize_image(image)
        metadata = verify_and_decode(blob)
        assert metadata["package"] == DEMO_PACKAGE
        assert metadata["source_kernel"] == "3.4"
        region_names = {r["name"]
                        for p in metadata["processes"]
                        for r in p["regions"]}
        assert {"dalvik-heap", "stack", "code"} <= region_names

    def test_metadata_is_json_clean(self, image):
        text = json.dumps(image_metadata(image))
        assert DEMO_PACKAGE in text
        assert "enqueueNotification" in text

    def test_frame_matches_image(self, image):
        verify_against_image(serialize_image(image), image)

    def test_log_args_described(self, image):
        metadata = image_metadata(image)
        (entry,) = metadata["record_log"]
        assert entry["method"] == "enqueueNotification"
        assert entry["args"]["id"] == 1
        assert entry["args"]["notification"]["__object__"] == "Notification"


def _nul_heavy_image():
    """A hand-built image whose payloads are full of NUL bytes.

    Version 1's ``b"\\x00".join`` framing could not round-trip these:
    any payload containing (or equal to) NULs made the join ambiguous.
    Version 2's per-region (offset, length) table must reconstruct every
    payload byte-for-byte.
    """
    from repro.android.kernel.memory import MemoryRegion, RegionKind
    from repro.core.cria.image import CheckpointImage, ProcessImage

    regions = [
        MemoryRegion("dalvik-heap", RegionKind.HEAP, 4096,
                     payload=b"\x00\x00live\x00heap\x00\x00"),
        MemoryRegion("all-nuls", RegionKind.MMAP, 512,
                     payload=b"\x00" * 64),
        MemoryRegion("empty", RegionKind.MMAP, 0, payload=b""),
        MemoryRegion("stack", RegionKind.STACK, 1024,
                     payload=b"frame\x00frame\x00"),
    ]
    proc = ProcessImage(name="com.nul.demo", virtual_pid=7, uid=10007,
                        regions=regions, threads=[], fds=[],
                        binder_refs=[], owned_node_labels=[])
    return CheckpointImage(
        package="com.nul.demo", source_device="Nexus 4",
        source_kernel="3.4", android_version="4.4", api_level=19,
        checkpoint_time=1.5, processes=[proc], app_payload=None,
        record_log=[])


class TestNulPayloadFraming:
    def test_round_trip_preserves_nul_payloads(self):
        image = _nul_heavy_image()
        blob = serialize_image(image)
        payloads = region_payloads(blob)
        for proc in image.processes:
            for region in proc.regions:
                assert payloads[(proc.virtual_pid, region.name)] \
                    == region.payload, region.name
        verify_against_image(blob, image)

    def test_offset_table_is_exact(self):
        image = _nul_heavy_image()
        metadata = verify_and_decode(serialize_image(image))
        assert metadata["version"] == WIRE_VERSION
        (proc,) = metadata["processes"]
        offset = 0
        for region_meta, region in zip(proc["regions"],
                                       image.main_process.regions):
            assert region_meta["offset"] == offset
            assert region_meta["length"] == len(region.payload)
            offset += len(region.payload)

    def test_payload_tamper_detected_via_offsets(self):
        image = _nul_heavy_image()
        blob = serialize_image(image)
        # Same length, different bytes, region digest left stale in the
        # image object: the payload comparison must catch it.
        image.main_process.regions[0].payload = \
            b"\x00\x00evil\x00heap\x00\x00"
        with pytest.raises(WireError, match="mismatch"):
            verify_against_image(blob, image)

    def test_out_of_bounds_slice_detected(self):
        image = _nul_heavy_image()
        blob = serialize_image(image)
        import hashlib
        import json
        import struct
        header = struct.Struct(">8sII")
        magic, meta_len, payload_len = header.unpack_from(blob)
        meta = json.loads(blob[header.size:header.size + meta_len])
        meta["processes"][0]["regions"][0]["length"] = 10 ** 6
        raw = json.dumps(meta, separators=(",", ":")).encode()
        body = header.pack(magic, len(raw), payload_len) + raw \
            + blob[header.size + meta_len:-32]
        with pytest.raises(WireError, match="outside payload"):
            region_payloads(body + hashlib.sha256(body).digest())


class TestCorruptionDetection:
    def test_flipped_bit_detected(self, image):
        blob = bytearray(serialize_image(image))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(WireError, match="checksum"):
            verify_and_decode(bytes(blob))

    def test_truncation_detected(self, image):
        blob = serialize_image(image)
        with pytest.raises(WireError):
            verify_and_decode(blob[: len(blob) // 2])

    def test_bad_magic_detected(self, image):
        import hashlib
        blob = bytearray(serialize_image(image)[:-32])
        blob[:8] = b"NOTFLUX1"
        blob = bytes(blob) + hashlib.sha256(bytes(blob)).digest()
        with pytest.raises(WireError, match="magic"):
            verify_and_decode(blob)

    def test_region_tamper_detected(self, image):
        blob = serialize_image(image)
        # Tamper with the image memory after framing: digests disagree.
        image.main_process.regions[0].payload += b"!"
        with pytest.raises(WireError, match="digest mismatch"):
            verify_against_image(blob, image)

    def test_wrong_package_detected(self, image, device):
        other_thread = launch_demo(device, package="com.other")
        prepare_app(device, "com.other")
        other_image = checkpoint_app(device, "com.other")
        blob = serialize_image(other_image)
        with pytest.raises(WireError, match="is for"):
            verify_against_image(blob, image)


def _reseal(blob, mutate):
    """Re-frame ``blob`` with mutated metadata and a valid checksum."""
    import hashlib
    import struct
    header = struct.Struct(">8sII")
    magic, meta_len, payload_len = header.unpack_from(blob)
    meta = json.loads(blob[header.size:header.size + meta_len])
    meta = mutate(meta) or meta
    raw = json.dumps(meta, separators=(",", ":")).encode()
    body = header.pack(magic, len(raw), payload_len) + raw \
        + blob[header.size + meta_len:-32]
    return body + hashlib.sha256(body).digest()


def _first_process(meta):
    return meta["processes"][0]


def _first_region(meta):
    return meta["processes"][0]["regions"][0]


#: Structure-aware metadata mutations; each frame is re-sealed, so only
#: the schema check can catch it.
MALFORMED_METADATA = {
    "no package": lambda m: m.pop("package"),
    "no processes": lambda m: m.pop("processes"),
    "processes not a list": lambda m: m.update(processes={"0": {}}),
    "process not a dict": lambda m: m.update(processes=[7]),
    "no virtual_pid": lambda m: _first_process(m).pop("virtual_pid"),
    "str virtual_pid": lambda m: _first_process(m).update(virtual_pid="7"),
    "regions not a list": lambda m: _first_process(m).update(regions="r"),
    "region not a dict": lambda m: _first_process(m).update(regions=[1]),
    "no region name": lambda m: _first_region(m).pop("name"),
    "no region digest": lambda m: _first_region(m).pop("digest"),
    "str offset": lambda m: _first_region(m).update(offset="0"),
    "bool length": lambda m: _first_region(m).update(length=True),
    "metadata not an object": lambda m: [m],
}


class TestMalformedMetadata:
    @pytest.mark.parametrize("mutation", sorted(MALFORMED_METADATA))
    def test_every_decoder_raises_wire_error(self, image, mutation):
        blob = _reseal(serialize_image(image), MALFORMED_METADATA[mutation])
        with pytest.raises(WireError):
            verify_and_decode(blob)
        with pytest.raises(WireError):
            region_payloads(blob)
        with pytest.raises(WireError):
            verify_against_image(blob, image)

    def test_unmutated_reseal_still_verifies(self, image):
        blob = _reseal(serialize_image(image), lambda m: None)
        verify_against_image(blob, image)


class TestMigrationUsesWire:
    def test_migration_still_green_with_verification(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
