//! Property-based tests for the measurement platform's accounting
//! invariants.

use atlas_sim::clock::VirtualClock;
use atlas_sim::{CreditAccount, Platform};
use geo_model::rng::Seed;
use net_sim::Network;
use proptest::prelude::*;
use world_sim::{World, WorldConfig};

fn world() -> &'static (World, Network) {
    use std::sync::OnceLock;
    static W: OnceLock<(World, Network)> = OnceLock::new();
    W.get_or_init(|| {
        (
            World::generate(WorldConfig::small(Seed(4001))).expect("world"),
            Network::new(Seed(4001)),
        )
    })
}

proptest! {
    /// Credits: balance + spent is invariant, and failures never charge.
    #[test]
    fn credit_conservation(
        balance in 0u64..10_000,
        first in 0u64..5_000,
        second in 0u64..5_000,
    ) {
        let mut acc = CreditAccount::new(balance);
        let _ = acc.charge_pings(first);
        let _ = acc.charge_pings(second);
        prop_assert_eq!(acc.balance() + acc.spent(), balance);
    }

    /// The virtual clock is monotone under any sequence of advances.
    #[test]
    fn clock_is_monotone(steps in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let mut clock = VirtualClock::new();
        let mut last = 0.0;
        for s in steps {
            clock.advance(s);
            prop_assert!(clock.now_secs() >= last);
            last = clock.now_secs();
        }
    }

    /// A mesh download always returns an `n x n` matrix with an empty
    /// diagonal, charges exactly `n (n - 1)` pings of 3 packets, and
    /// advances the clock.
    #[test]
    fn batch_accounting(n in 1usize..12, first in 0usize..25) {
        let (w, net) = world();
        let mut platform = Platform::new(CreditAccount::upgraded());
        let anchors: Vec<_> = w.anchors.iter().copied().cycle().skip(first).take(n).collect();
        let mesh = platform.anchor_mesh(w, net, &anchors).expect("mesh");
        prop_assert_eq!((mesh.rows(), mesh.cols()), (n, n));
        prop_assert!((0..n).all(|i| mesh.get(i, i).is_none()));
        prop_assert_eq!(platform.credits().spent(), (n * (n - 1) * 3) as u64);
        prop_assert!(platform.clock().now_secs() > 0.0);
    }
}
