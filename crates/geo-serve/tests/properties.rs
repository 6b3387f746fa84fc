//! Property tests of the `.igds` format and the store's lookup index:
//! arbitrary entry sets survive a save→load round trip bit-identically,
//! and the bucket-indexed lookups give the answers of a binary search
//! over all entries and of a linear scan of the source.

use geo_model::ip::{Ipv4, Prefix24};
use geo_model::point::GeoPoint;
use geo_model::units::Ms;
use geo_serve::format;
use geo_serve::DatasetStore;
use ipgeo::publish::{DatasetEntry, Evidence};
use proptest::prelude::*;
use world_sim::ids::HostId;

/// Builds one entry from a generated tuple: a 24-bit prefix, a location,
/// and one of the four evidence classes with tag-derived detail values.
fn entry((prefix, lat, lon, tag, detail): (u32, f64, f64, u8, u32)) -> DatasetEntry {
    let evidence = match tag {
        0 => Evidence::Geofeed,
        1 => Evidence::DnsHint {
            hostname: format!("host-{detail}.as{}.example.net", detail % 97),
        },
        2 => Evidence::Latency {
            vps: (detail % 512) as usize,
            // An arbitrary but finite bit pattern derived from the tuple.
            best_rtt: Ms((detail % 10_000) as f64 / 16.0),
            best_vp: HostId(detail),
        },
        _ => Evidence::Whois,
    };
    DatasetEntry {
        prefix: Prefix24(prefix),
        location: GeoPoint::new(lat, lon),
        evidence,
    }
}

/// The canonical form the format promises: sorted by prefix, first record
/// kept for duplicated prefixes.
fn canonical(mut entries: Vec<DatasetEntry>) -> Vec<DatasetEntry> {
    entries.sort_by_key(|e| e.prefix);
    entries.dedup_by_key(|e| e.prefix);
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode→decode returns the canonical entry set with bit-exact
    /// coordinates and RTTs, and re-encoding reproduces the same bytes.
    #[test]
    fn snapshot_round_trips_bit_identically(
        raw in prop::collection::vec(
            (0u32..0x0100_0000, -90.0f64..90.0, -180.0f64..180.0, 0u8..4, any::<u32>()),
            0..48,
        ),
        seed in any::<u64>(),
        nonce in any::<u64>(),
    ) {
        let entries: Vec<DatasetEntry> = raw.into_iter().map(entry).collect();
        let bytes = format::encode(&entries, seed, nonce);
        let (header, decoded) = format::decode(&bytes).expect("fresh snapshot decodes");
        let expected = canonical(entries);

        prop_assert_eq!(header.world_seed, seed);
        prop_assert_eq!(header.nonce, nonce);
        prop_assert_eq!(decoded.len(), expected.len());
        for (d, e) in decoded.iter().zip(&expected) {
            prop_assert_eq!(d.prefix, e.prefix);
            prop_assert_eq!(d.location.lat().to_bits(), e.location.lat().to_bits());
            prop_assert_eq!(d.location.lon().to_bits(), e.location.lon().to_bits());
            prop_assert_eq!(&d.evidence, &e.evidence);
        }
        // Determinism: a second encode of the decoded entries is the same
        // file, byte for byte.
        prop_assert_eq!(format::encode(&decoded, seed, nonce), bytes);
    }

    /// Arbitrary byte soup and arbitrarily mutated valid snapshots always
    /// decode to a typed `Result` — the decoder never panics, whatever the
    /// input (the geo-serve hardening contract).
    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        soup in prop::collection::vec(any::<u8>(), 0..512),
        raw in prop::collection::vec(
            (0u32..0x0100_0000, -90.0f64..90.0, -180.0f64..180.0, 0u8..4, any::<u32>()),
            0..16,
        ),
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        // Pure noise.
        let _ = format::decode(&soup);

        // A valid snapshot, truncated at an arbitrary point: must fail,
        // and must fail with a typed error rather than a panic.
        let entries: Vec<DatasetEntry> = raw.into_iter().map(entry).collect();
        let good = format::encode(&entries, seed, 1);
        let len = (cut as usize) % good.len().max(1);
        prop_assert!(format::decode(&good[..len.min(good.len() - 1)]).is_err());

        // A single bit flip anywhere: decoding may fail (typed) but must
        // never panic. On the rare no-op regions it may still succeed.
        let mut mutated = good.clone();
        let at = (flip_at as usize) % mutated.len();
        mutated[at] ^= 1 << flip_bit;
        let _ = format::decode(&mutated);
    }

    /// Lookups agree with a linear scan over the source entries, and with
    /// a binary search over all of them, for exact, batch, and nearest
    /// queries: on a dense corner of the space, and on entries and probes
    /// over the whole 24-bit space (where the bucket index spreads them).
    #[test]
    fn store_lookups_agree_with_linear_scan(
        raw in prop::collection::vec(
            (0u32..4096, -90.0f64..90.0, -180.0f64..180.0, 0u8..4, any::<u32>()),
            1..64,
        ),
        wide in prop::collection::vec(
            (0u32..0x0100_0000, -90.0f64..90.0, -180.0f64..180.0, 0u8..4, any::<u32>()),
            1..300,
        ),
        probes in prop::collection::vec((0u32..4096, 0u32..256), 1..32),
        wide_probes in prop::collection::vec((0u32..0x0100_0000, 0u32..256), 1..64),
    ) {
        for (raw, probes) in [(raw, probes), (wide, wide_probes)] {
            let entries = canonical(raw.into_iter().map(entry).collect());
            let store = DatasetStore::from_entries(&entries, 1, 1);
            let ips: Vec<Ipv4> = probes
                .iter()
                .map(|&(p, byte)| Prefix24(p).host(byte as u8))
                // Every entry's own /24 and its neighbors: exact hits.
                .chain(entries.iter().flat_map(|e| around(e.prefix.0, 1)))
                .collect();
            let batch = store.lookup_batch(&ips);

            for (ip, from_batch) in ips.iter().zip(&batch) {
                let scan = entries.iter().find(|e| e.prefix.contains(*ip));
                prop_assert_eq!(store.lookup(*ip), scan);
                prop_assert_eq!(from_batch.as_ref(), scan);

                let (nearest, dist) = store.lookup_nearest(*ip).expect("store is non-empty");
                let best = entries
                    .iter()
                    .map(|e| e.prefix.0.abs_diff(ip.prefix24().0))
                    .min()
                    .expect("store is non-empty");
                prop_assert_eq!(dist, best);
                prop_assert_eq!(nearest.prefix.0.abs_diff(ip.prefix24().0), best);
                check_against_oracle(&store, ip.prefix24().0)?;
            }
        }
    }

    /// Dense runs of consecutive prefixes near one origin: the store spans
    /// a few thousand /24s, so its buckets are a few prefixes wide and
    /// every run crosses bucket edges. Every prefix of the span and two
    /// beyond each end, plus both ends of the space, answers as a binary
    /// search over all entries does.
    #[test]
    fn runs_across_bucket_edges_match_the_whole_array_search(
        origin in 0u32..0x00FF_E000,
        runs in prop::collection::vec((0u32..4096, 1u32..96), 1..6),
    ) {
        let prefixes: Vec<u32> = runs
            .iter()
            .flat_map(|&(base, len)| origin + base..origin + base + len)
            .collect();
        let store = DatasetStore::from_entries(&entries_at(&prefixes), 1, 1);
        let (lo, hi) = (prefixes.iter().min(), prefixes.iter().max());
        let span = lo.zip(hi).map_or(0..=0, |(&lo, &hi)| lo.saturating_sub(2)..=hi + 2);
        for prefix in span.chain(edges().map(|ip| ip.prefix24().0)) {
            check_against_oracle(&store, prefix)?;
        }
    }

    /// Dense runs among entries scattered over the whole space: the span
    /// is wide, so a bucket can hold a whole run next to empty ones, and
    /// the ends of the space may hold entries. Every prefix in and around
    /// each run and each scattered entry, plus both ends of the space,
    /// answers as a binary search over all entries does.
    #[test]
    fn runs_in_wide_buckets_match_the_whole_array_search(
        runs in prop::collection::vec((0u32..0x0100_0000, 1u32..96), 1..5),
        scattered in prop::collection::vec(0u32..0x0100_0000, 0..6),
        ends in (any::<bool>(), any::<bool>()),
    ) {
        let mut prefixes: Vec<u32> = runs
            .iter()
            .flat_map(|&(base, len)| base..(base + len).min(0x0100_0000))
            .chain(scattered.iter().copied())
            .collect();
        if ends.0 {
            prefixes.push(0);
        }
        if ends.1 {
            prefixes.push(0x00FF_FFFF);
        }
        let store = DatasetStore::from_entries(&entries_at(&prefixes), 1, 1);
        let probes = runs
            .iter()
            .flat_map(|&(base, len)| around(base, 2).chain(around(base + len, 2)))
            .chain(runs.iter().flat_map(|&(base, len)| {
                (base..(base + len).min(0x0100_0000)).map(|p| Prefix24(p).host(3))
            }))
            .chain(scattered.iter().flat_map(|&p| around(p, 1)))
            .chain(edges());
        for ip in probes {
            check_against_oracle(&store, ip.prefix24().0)?;
        }
    }

    /// A one-entry store answers every probe with its entry (nearest) or
    /// nothing (exact miss), including the two ends of the space.
    #[test]
    fn one_entry_store_matches_the_whole_array_search(
        at in 0u32..0x0100_0000,
        probes in prop::collection::vec(0u32..0x0100_0000, 1..16),
    ) {
        let store = DatasetStore::from_entries(&entries_at(&[at]), 1, 1);
        let ips = around(at, 2)
            .chain(edges())
            .chain(probes.iter().map(|&p| Prefix24(p).host(9)));
        for ip in ips {
            check_against_oracle(&store, ip.prefix24().0)?;
        }
    }
}

/// The empty store answers nothing, anywhere in the space.
#[test]
fn empty_store_matches_the_whole_array_search() {
    let store = DatasetStore::from_entries(&[], 1, 1);
    for ip in edges().chain(around(0x0080_0000, 2)) {
        assert!(store.lookup(ip).is_none());
        assert!(store.lookup_nearest(ip).is_none());
        check_against_oracle(&store, ip.prefix24().0).unwrap();
    }
}

/// Geofeed entries at the given prefixes.
fn entries_at(prefixes: &[u32]) -> Vec<DatasetEntry> {
    prefixes
        .iter()
        .map(|&p| entry((p, 0.0, 0.0, 0, 0)))
        .collect()
}

/// An address in each /24 within `reach` of `prefix`, clamped to the
/// 24-bit space.
fn around(prefix: u32, reach: u32) -> impl Iterator<Item = Ipv4> {
    (prefix.saturating_sub(reach)..=(prefix + reach).min(0x00FF_FFFF)).map(|p| Prefix24(p).host(1))
}

/// The first and last addresses of the space.
fn edges() -> impl Iterator<Item = Ipv4> {
    [Ipv4(0), Ipv4(1), Ipv4(0xFFFF_FF01), Ipv4(u32::MAX)].into_iter()
}

/// Checks `get`, `lookup` and `lookup_nearest` for `prefix` against a
/// binary search over all of the store's entries: the same entry (by
/// identity, not only by value), the same distance, and on a tie the
/// lower prefix.
fn check_against_oracle(store: &DatasetStore, prefix: u32) -> Result<(), TestCaseError> {
    let all = store.entries();
    let target = Prefix24(prefix);
    let found = all.binary_search_by_key(&target, |e| e.prefix);
    let same = |got: Option<&DatasetEntry>, want: Option<usize>| match (got, want) {
        (Some(g), Some(w)) => std::ptr::eq(g, &all[w]),
        (None, None) => true,
        _ => false,
    };
    prop_assert!(
        same(store.get(target), found.ok()),
        "get({:#x}) disagrees with the whole-array search",
        prefix
    );
    prop_assert!(same(store.lookup(target.host(77)), found.ok()));

    let want = match found {
        Ok(i) => Some((i, 0)),
        Err(i) => {
            let dist = |j: usize| all[j].prefix.0.abs_diff(prefix);
            match (i.checked_sub(1), (i < all.len()).then_some(i)) {
                (Some(b), Some(a)) => Some(if dist(b) <= dist(a) {
                    (b, dist(b))
                } else {
                    (a, dist(a))
                }),
                (Some(b), None) => Some((b, dist(b))),
                (None, Some(a)) => Some((a, dist(a))),
                (None, None) => None,
            }
        }
    };
    let got = store.lookup_nearest(target.host(200));
    prop_assert!(
        same(got.map(|(e, _)| e), want.map(|(i, _)| i)),
        "lookup_nearest({:#x}) picked {:?}, the whole-array search {:?}",
        prefix,
        got.map(|(e, d)| (e.prefix, d)),
        want.map(|(i, d)| (all[i].prefix, d))
    );
    prop_assert_eq!(got.map(|(_, d)| d), want.map(|(_, d)| d));
    Ok(())
}
