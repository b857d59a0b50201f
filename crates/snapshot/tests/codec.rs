//! Property tests on the snapshot codec: arbitrary content round-trips
//! bit-exactly, and **every** corruption — any single byte, any truncation,
//! any random input — is rejected with a typed [`SnapshotError`], never a
//! panic or a silently wrong answer.

use net_types::{Asn, Prefix};
use proptest::prelude::*;
use snapshot::{codec, AnnRecord, LinkRecord, RouterRecord, Snapshot, SnapshotData};

fn ann_strategy() -> impl Strategy<Value = AnnRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(addr, ir, asn, origin, conn)| AnnRecord {
            addr,
            ir,
            asn: Asn(asn),
            origin: Asn(origin),
            conn: Asn(conn),
        })
}

fn link_strategy() -> impl Strategy<Value = LinkRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
    )
        .prop_map(|(ir, ir_as, iface_addr, conn_as, last_hop)| LinkRecord {
            ir,
            ir_as: Asn(ir_as),
            iface_addr,
            conn_as: Asn(conn_as),
            last_hop,
        })
}

fn router_strategy() -> impl Strategy<Value = RouterRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(|(ir, asn, ifaces)| RouterRecord {
            ir,
            asn: Asn(asn),
            ifaces,
        })
}

/// Canonical prefixes only: `Prefix::new` masks host bits, matching the
/// invariant the writer relies on and the decoder enforces.
fn prefix_strategy() -> impl Strategy<Value = (Prefix, Asn)> {
    (any::<u32>(), 0u8..=32, any::<u32>())
        .prop_map(|(addr, len, asn)| (Prefix::new(addr, len), Asn(asn)))
}

prop_compose! {
    fn data_strategy()(
        annotations in proptest::collection::vec(ann_strategy(), 0..12),
        links in proptest::collection::vec(link_strategy(), 0..12),
        routers in proptest::collection::vec(router_strategy(), 0..8),
        prefixes in proptest::collection::vec(prefix_strategy(), 0..12),
    ) -> SnapshotData {
        // Annotation and router records are indexes: keys strictly ascend.
        let (mut annotations, mut routers) = (annotations, routers);
        annotations.sort_by_key(|r| r.addr);
        annotations.dedup_by_key(|r| r.addr);
        routers.sort_by_key(|r| r.ir);
        routers.dedup_by_key(|r| r.ir);
        SnapshotData { annotations, links, routers, prefixes }
    }
}

/// A small fixed snapshot for the exhaustive byte-by-byte sweeps.
fn sample() -> SnapshotData {
    SnapshotData {
        annotations: vec![
            AnnRecord {
                addr: 0x0a01_0001,
                ir: 0,
                asn: Asn(100),
                origin: Asn(100),
                conn: Asn(200),
            },
            AnnRecord {
                addr: 0x0a02_0001,
                ir: 1,
                asn: Asn(200),
                origin: Asn(200),
                conn: Asn(0),
            },
        ],
        links: vec![LinkRecord {
            ir: 0,
            ir_as: Asn(100),
            iface_addr: 0x0a02_0001,
            conn_as: Asn(200),
            last_hop: true,
        }],
        routers: vec![RouterRecord {
            ir: 0,
            asn: Asn(100),
            ifaces: vec![0x0a01_0001],
        }],
        prefixes: vec![
            ("10.1.0.0/16".parse().unwrap(), Asn(100)),
            ("10.2.0.0/16".parse().unwrap(), Asn(200)),
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → load reproduces the content exactly, and re-serializing the
    /// loaded content reproduces the bytes exactly (canonical encoding).
    #[test]
    fn roundtrip_is_bit_exact(data in data_strategy()) {
        let bytes = codec::to_bytes(&data);
        let back = codec::from_bytes(&bytes);
        prop_assert_eq!(back.as_ref(), Ok(&data));
        prop_assert_eq!(codec::to_bytes(&back.unwrap()), bytes);
    }

    /// Flipping any single byte anywhere in a snapshot makes the parser
    /// return a typed error. FNV-1a-64 is injective per byte position
    /// (xor-then-multiply by an odd prime), so a one-byte change always
    /// changes the covering digest.
    #[test]
    fn any_single_byte_corruption_is_rejected(
        data in data_strategy(),
        pos in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let mut bytes = codec::to_bytes(&data);
        let pos = pos % bytes.len();
        bytes[pos] ^= delta;
        prop_assert!(
            codec::from_bytes(&bytes).is_err(),
            "flip at byte {} (of {}) was accepted",
            pos,
            bytes.len()
        );
    }

    /// Any strict truncation is rejected — a partial write never loads.
    #[test]
    fn any_truncation_is_rejected(
        data in data_strategy(),
        keep in any::<usize>(),
    ) {
        let bytes = codec::to_bytes(&data);
        let keep = keep % bytes.len();
        prop_assert!(codec::from_bytes(&bytes[..keep]).is_err());
    }

    /// The parser is total over arbitrary bytes: it returns `Result`, it
    /// never panics, and `Snapshot::from_bytes` inherits that totality.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = codec::from_bytes(&bytes);
        let _ = Snapshot::from_bytes(&bytes);
    }

    /// Same, but starting from a valid preamble prefix so fuzzing reaches
    /// the section decoders instead of dying at the magic check.
    #[test]
    fn corrupt_tails_behind_a_real_magic_never_panic(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = codec::to_bytes(&SnapshotData::default());
        bytes.truncate(16); // keep magic + version + section count
        bytes.extend_from_slice(&tail);
        let _ = codec::from_bytes(&bytes);
    }
}

/// Deterministic exhaustive sweep: *every* byte position of a realistic
/// snapshot, two flip patterns each. This is the byte-by-byte proof the
/// format documentation promises.
#[test]
fn exhaustive_single_byte_sweep_rejects_every_position() {
    let bytes = codec::to_bytes(&sample());
    for pos in 0..bytes.len() {
        for delta in [0x01u8, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= delta;
            let err = codec::from_bytes(&corrupt);
            assert!(
                err.is_err(),
                "corruption at byte {pos}/{} (xor {delta:#04x}) was accepted",
                bytes.len()
            );
        }
    }
}

/// Exhaustive truncation sweep on the same sample.
#[test]
fn exhaustive_truncation_sweep_rejects_every_length() {
    let bytes = codec::to_bytes(&sample());
    for keep in 0..bytes.len() {
        assert!(
            codec::from_bytes(&bytes[..keep]).is_err(),
            "truncation to {keep}/{} bytes was accepted",
            bytes.len()
        );
    }
}

/// Two records for one key, or keys out of order, would let `lookup_addr`
/// or `router` answer with one record while `data` holds another: the
/// decoder rejects both sections unless their keys strictly ascend.
#[test]
fn repeated_or_descending_keys_are_rejected() {
    use snapshot::{SectionId, SnapshotError};
    let malformed = |data: &SnapshotData| match codec::from_bytes(&codec::to_bytes(data)) {
        Err(SnapshotError::Malformed {
            section, record, ..
        }) => Some((section, record)),
        _ => None,
    };
    let base = sample();
    assert!(codec::from_bytes(&codec::to_bytes(&base)).is_ok());
    for (addr, what) in [(base.annotations[0].addr, "repeated"), (0, "descending")] {
        let mut data = base.clone();
        data.annotations[1].addr = addr;
        assert_eq!(
            malformed(&data),
            Some((SectionId::Annotations, 1)),
            "{what} annotation address"
        );
    }
    let mut data = base.clone();
    data.routers.push(RouterRecord {
        ir: base.routers[0].ir,
        ..base.routers[0].clone()
    });
    let last = data.routers.len() as u64 - 1;
    assert_eq!(
        malformed(&data),
        Some((SectionId::Routers, last)),
        "repeated IR"
    );
    data.routers.last_mut().unwrap().ir = base.routers[0].ir + 1;
    assert!(malformed(&data).is_none());
    data.routers.reverse();
    assert_eq!(
        malformed(&data),
        Some((SectionId::Routers, 1)),
        "descending IR"
    );
}
