//! The `bdd.nodes` work counter. Alone in its own test binary: the counter
//! is process-wide, and a concurrently dropped manager would move it.

use epic_analysis::bdd::BddManager;
use epic_obs::MetricsRegistry;

#[test]
fn dropping_a_manager_publishes_the_nodes_it_created() {
    let nodes = MetricsRegistry::global().counter("bdd.nodes");

    let before = nodes.value();
    drop(BddManager::new());
    assert_eq!(nodes.value(), before, "the two constants are not counted");

    let mut m = BddManager::new();
    let a = m.var(0);
    let b = m.var(1);
    let ab = m.and(a, b);
    let nab = m.not(ab);
    let _ = m.or(nab, a);
    assert!(m.disjoint(ab, nab));
    let created = m.node_count() as u64 - 2;
    assert!(created >= 4, "{created}");
    drop(m);
    assert_eq!(nodes.value() - before, created);
}
