//! Shared experiment state: the world, the sanitized vantage points, and
//! the bulk measurement matrices.
//!
//! Building a [`Dataset`] reproduces the paper's §4 pipeline end to end:
//! generate (stand in for "recruit") the measurement infrastructure, run
//! the meshed anchor measurements, sanitize anchors then probes (§4.3),
//! and materialize the probe→anchor minimum-RTT campaign every experiment
//! reads. The representative campaign of the million-scale experiments
//! (21.7M measurements at full scale) is built lazily on first use.
//!
//! All three campaigns (anchor mesh, probes → anchors, probes →
//! representatives) run on `Network::campaign`, which fills one
//! `geo_model::matrix::Matrix` in place: [`DelayMatrix`] (`f64`, the exact
//! measured bits the sanitizers read) for the two §4.3 campaigns,
//! [`RttMatrix`] (`f32`) for the representatives. The engine visits the
//! sources grouped by attachment PoP, so rows behind one PoP share their
//! route synthesis, and writes each row at its source's index, so no
//! matrix is built twice or permuted. No campaign stores anything per
//! (src, dst) pair: each pair is measured once, so a per-pair entry would
//! cost memory and hashing for reads that never come. The experiments
//! read dense `RttMatrix` copies over the sanitized populations. See
//! DESIGN.md §10 for the hot-path architecture.

use geo_model::rng::Seed;
use geo_model::soi::SpeedOfInternet;
use ipgeo::{sanitize_anchors, sanitize_probes};
use net_sim::Network;
use std::sync::OnceLock;
use web_sim::ecosystem::{WebConfig, WebEcosystem};
use world_sim::hitlist::HitlistEntry;
use world_sim::host::Host;
use world_sim::ids::HostId;
use world_sim::{World, WorldConfig};

pub use geo_model::matrix::{DelayMatrix, RttMatrix};

/// Experiment fidelity knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalScale {
    /// Seed for the whole evaluation.
    pub seed: Seed,
    /// Use the paper-scale world (723 anchors / 10k probes) or the
    /// miniature test world.
    pub paper_world: bool,
    /// Random-subset trials for Figures 2a/2b (the paper uses 100).
    pub trials: usize,
    /// Limit the number of targets per experiment (`None` = all).
    pub target_sample: Option<usize>,
    /// Limit the number of targets for the street-level pipeline
    /// (`None` = all).
    pub street_sample: Option<usize>,
}

impl EvalScale {
    /// Full paper fidelity.
    pub fn full(seed: Seed) -> EvalScale {
        EvalScale {
            seed,
            paper_world: true,
            trials: 100,
            target_sample: None,
            street_sample: None,
        }
    }

    /// Reduced fidelity: paper-scale world, subsampled targets and fewer
    /// trials. The default for the `fig*` binaries (override with
    /// `IPGEO_FULL=1`).
    pub fn quick(seed: Seed) -> EvalScale {
        EvalScale {
            seed,
            paper_world: true,
            trials: 25,
            target_sample: Some(240),
            street_sample: Some(120),
        }
    }

    /// Miniature world for Criterion benches and tests.
    pub fn tiny(seed: Seed) -> EvalScale {
        EvalScale {
            seed,
            paper_world: false,
            trials: 5,
            target_sample: None,
            street_sample: Some(8),
        }
    }

    /// Reads the scale from the environment: `IPGEO_SEED` (default 2023)
    /// and `IPGEO_FULL=1` for full fidelity.
    pub fn from_env() -> EvalScale {
        let seed = std::env::var("IPGEO_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .map_or(Seed(2023), Seed);
        if std::env::var("IPGEO_FULL").is_ok_and(|v| v == "1") {
            EvalScale::full(seed)
        } else {
            EvalScale::quick(seed)
        }
    }
}

/// Positions of an in-order subset within its source list: `subset` must
/// preserve `all`'s order (the sanitizers' `kept` lists do). A linear
/// two-pointer walk — no hash maps on the assembly path.
fn positions_of(subset: &[HostId], all: &[HostId]) -> Vec<usize> {
    let mut out = Vec::with_capacity(subset.len());
    let mut i = 0;
    for &want in subset {
        while all[i] != want {
            i += 1;
        }
        out.push(i);
        i += 1;
    }
    out
}

/// The shared evaluation dataset.
pub struct Dataset {
    /// The world (with web servers added by the ecosystem generator).
    pub world: World,
    /// The web ecosystem.
    pub eco: WebEcosystem,
    /// The network simulator.
    pub net: Network,
    /// The scale this dataset was built at.
    pub scale: EvalScale,
    /// Sanitized targets (anchors that survived §4.3), subsampled per the
    /// scale.
    pub targets: Vec<HostId>,
    /// All sanitized anchors (the street-level vantage points).
    pub anchors: Vec<HostId>,
    /// Sanitized probes (the million-scale vantage points).
    pub vps: Vec<HostId>,
    /// Anchors removed by sanitization.
    pub removed_anchors: Vec<HostId>,
    /// Probes removed by sanitization.
    pub removed_probes: Vec<HostId>,
    /// Min-RTT matrix: `vps x targets`.
    pub rtt: RttMatrix,
    /// Min-RTT mesh among sanitized anchors: `anchors x anchors`.
    pub anchor_rtt: RttMatrix,
    /// The representatives per target (parallel to `targets`).
    pub reps: Vec<Vec<HitlistEntry>>,
    rep_rtt: OnceLock<RttMatrix>,
}

impl Dataset {
    /// Builds the dataset: world, ecosystem, sanitization, campaigns.
    pub fn load(scale: EvalScale) -> Dataset {
        let cfg = if scale.paper_world {
            WorldConfig::paper(scale.seed)
        } else {
            WorldConfig::small(scale.seed)
        };
        let mut world = World::generate(cfg).expect("valid preset config");
        let eco =
            WebEcosystem::generate(&mut world, &WebConfig::default()).expect("valid web config");
        let net = Network::new(scale.seed.derive("network"));
        let soi = SpeedOfInternet::CBG;

        // §4.3 step 1: meshed anchor measurements, sanitize anchors. Each
        // cell is a pure function of (anchor, anchor, packet index), so the
        // mesh is bit-identical at any `IPGEO_THREADS`; see DESIGN.md §10.
        let raw_anchors = &world.anchors;
        let mesh: DelayMatrix = net.campaign(
            &world,
            raw_anchors,
            raw_anchors,
            raw_anchors.len(),
            3,
            |i, j| 0x4E5A ^ ((i as u64) << 24 | j as u64),
            Some, // the diagonal stays NaN
            |row, j, out| row[j] = DelayMatrix::cell(out.rtt()),
        );
        let anchor_report = sanitize_anchors(&world, raw_anchors, &mesh, soi);
        let anchors = anchor_report.kept.clone();

        // §4.3 step 2: probes vs trusted anchors; the same measurements
        // feed the main RTT matrix.
        let raw_probes = &world.probes;
        let probe_rtts: DelayMatrix = net.campaign(
            &world,
            raw_probes,
            &anchors,
            anchors.len(),
            3,
            |p, _| 0x9A11 ^ (p as u64) << 20,
            |_| None,
            |row, a, out| row[a] = DelayMatrix::cell(out.rtt()),
        );
        let probe_report = sanitize_probes(&world, raw_probes, &anchors, &probe_rtts, soi);
        let vps = probe_report.kept.clone();

        // Target subsample (deterministic stride); `target_cols[t]` is the
        // target's column in `probe_rtts` / row in the anchor mesh order.
        let target_cols: Vec<usize> = match scale.target_sample {
            Some(n) if n < anchors.len() => {
                let stride = anchors.len() as f64 / n as f64;
                (0..n).map(|i| (i as f64 * stride) as usize).collect()
            }
            _ => (0..anchors.len()).collect(),
        };
        let targets: Vec<HostId> = target_cols.iter().map(|&c| anchors[c]).collect();

        // Dense matrices over the sanitized populations, by direct index
        // remap (kept lists preserve input order, so the positions come
        // from a linear walk, not hash lookups).
        let vp_rows = positions_of(&vps, raw_probes);
        let rtt = RttMatrix::par_build(vps.len(), targets.len(), |vi, out| {
            let row = probe_rtts.row(vp_rows[vi]);
            for (slot, &col) in out.iter_mut().zip(&target_cols) {
                *slot = row[col] as f32;
            }
        });
        let anchor_rows = positions_of(&anchors, raw_anchors);
        let anchor_rtt = RttMatrix::par_build(anchors.len(), anchors.len(), |i, out| {
            let row = mesh.row(anchor_rows[i]);
            for (slot, &col) in out.iter_mut().zip(&anchor_rows) {
                *slot = row[col] as f32;
            }
        });

        // Representatives per target.
        let reps: Vec<Vec<HitlistEntry>> = targets
            .iter()
            .map(|&t| {
                let prefix = world.host(t).ip.prefix24();
                world
                    .hitlist
                    .representatives(prefix, ipgeo::million::REPRESENTATIVES)
            })
            .collect();

        Dataset {
            world,
            eco,
            net,
            scale,
            targets,
            anchors,
            vps,
            removed_anchors: anchor_report.removed,
            removed_probes: probe_report.removed,
            rtt,
            anchor_rtt,
            reps,
            rep_rtt: OnceLock::new(),
        }
    }

    /// The representative-campaign matrix: `vps x (targets *
    /// REPRESENTATIVES)`, built lazily (21.7M measurements at full scale)
    /// by the same campaign engine as the eager matrices; bit-identical at
    /// any `IPGEO_THREADS`.
    pub fn rep_rtt(&self) -> &RttMatrix {
        self.rep_rtt.get_or_init(|| {
            let k = ipgeo::million::REPRESENTATIVES;
            // One target per representative that is a host; a
            // representative address without one times out, so its cell
            // stays NaN. `cells[c]` is target `c`'s matrix column.
            let mut hosts = Vec::new();
            let mut cells = Vec::new();
            for (ti, reps) in self.reps.iter().enumerate() {
                for (ri, rep) in reps.iter().enumerate().take(k) {
                    if let Some(h) = self.world.host_by_ip(rep.ip) {
                        hosts.push(h.id);
                        cells.push(ti * k + ri);
                    }
                }
            }
            self.net.campaign(
                &self.world,
                &self.vps,
                &hosts,
                self.targets.len() * k,
                3,
                |_, c| {
                    let (ti, ri) = (cells[c] / k, cells[c] % k);
                    0x5E9 ^ ((ti as u64) << 8 | ri as u64)
                },
                |_| None,
                |row, c, out| row[cells[c]] = RttMatrix::cell(out.rtt()),
            )
        })
    }

    /// Host behind a target index.
    pub fn target_host(&self, idx: usize) -> &Host {
        self.world.host(self.targets[idx])
    }

    /// Geolocation error of an estimate for a target (km, against the
    /// true location).
    pub fn error_km(&self, idx: usize, estimate: &geo_model::GeoPoint) -> f64 {
        estimate.distance(&self.target_host(idx).location).value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::load(EvalScale::tiny(Seed(231)))
    }

    #[test]
    fn sanitization_removes_planted_hosts() {
        let d = tiny();
        // The small config plants 1 bad anchor and 4 bad probes.
        assert!(!d.removed_anchors.is_empty());
        assert!(d.removed_probes.len() >= 4);
        for &a in &d.anchors {
            assert!(!d.removed_anchors.contains(&a));
        }
    }

    #[test]
    fn matrices_have_consistent_shapes() {
        let d = tiny();
        assert_eq!(d.rtt.rows(), d.vps.len());
        assert_eq!(d.rtt.cols(), d.targets.len());
        assert_eq!(d.anchor_rtt.rows(), d.anchors.len());
        assert_eq!(d.reps.len(), d.targets.len());
    }

    #[test]
    fn rtt_matrix_mostly_populated() {
        let d = tiny();
        let mut hits = 0;
        let mut total = 0;
        for v in 0..d.rtt.rows() {
            for t in 0..d.rtt.cols() {
                total += 1;
                if d.rtt.get(v, t).is_some() {
                    hits += 1;
                }
            }
        }
        assert!(hits as f64 / total as f64 > 0.95, "{hits}/{total}");
    }

    #[test]
    fn rep_matrix_lazy_build() {
        let d = tiny();
        let m = d.rep_rtt();
        assert_eq!(m.rows(), d.vps.len());
        assert_eq!(m.cols(), d.targets.len() * ipgeo::million::REPRESENTATIVES);
        // Second call returns the same allocation.
        let m2 = d.rep_rtt();
        assert_eq!(m.cols(), m2.cols());
    }

    /// Every cell of the representative campaign, pinned: FNV-1a over the
    /// dimensions and each cell's `f32` bits (NaN timeouts included). The
    /// constant was recorded while the campaign still pinged cell by cell,
    /// each base RTT read through a per-pair memo.
    #[test]
    fn rep_matrix_matches_pinned_digest() {
        let d = tiny();
        let m = d.rep_rtt();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let cells = (0..m.rows()).flat_map(|r| m.row(r).iter().map(|c| c.to_bits() as u64));
        for v in [m.rows() as u64, m.cols() as u64].into_iter().chain(cells) {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0xc650_0887_30d9_0098, "rep_rtt digest {h:#018x}");
    }

    /// The whole eager build, pinned across commits: FNV-1a over the
    /// kept and removed host ids and every cell of `rtt` and `anchor_rtt`
    /// (`f32` bits, NaN timeouts included), each list and matrix led by
    /// its length or dimensions. `parallel_equivalence` only compares
    /// thread counts with each other; this catches a change that is
    /// deterministic but wrong.
    #[test]
    fn dataset_matches_pinned_digest() {
        let d = tiny();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for ids in [&d.anchors, &d.vps, &d.removed_anchors, &d.removed_probes] {
            eat(ids.len() as u64);
            ids.iter().for_each(|id| eat(id.0 as u64));
        }
        for m in [&d.rtt, &d.anchor_rtt] {
            eat(m.rows() as u64);
            eat(m.cols() as u64);
            (0..m.rows()).for_each(|r| m.row(r).iter().for_each(|c| eat(c.to_bits() as u64)));
        }
        assert_eq!(h, 0x3e19_c085_e8f1_e8d8, "dataset digest {h:#018x}");
    }

    #[test]
    fn target_subsampling() {
        let mut scale = EvalScale::tiny(Seed(232));
        scale.target_sample = Some(5);
        let d = Dataset::load(scale);
        assert_eq!(d.targets.len(), 5);
        assert_eq!(d.rtt.cols(), 5);
    }

    #[test]
    fn subset_positions_walk_in_order() {
        let all: Vec<HostId> = (0..10).map(HostId).collect();
        let subset = [HostId(1), HostId(4), HostId(5), HostId(9)];
        assert_eq!(positions_of(&subset, &all), vec![1, 4, 5, 9]);
        assert_eq!(positions_of(&[], &all), Vec::<usize>::new());
    }
}
