//! Pins the canonical bytes of a fault plan and their fingerprint.
//!
//! The fingerprint is part of every faulted run-cache key, so one changed
//! byte in [`FaultPlan::to_json`] would silently orphan every cached
//! faulted entry. The plan covers the writer's less common shapes: a
//! non-empty `fused_spes`, `"slot_limit":null` and an empty throttle list.

use cellsim_faults::FaultPlan;

const PLAN: &str = include_str!("fixtures/fused_plan.json");
/// The canonical JSON line, then the fingerprint as `0x` + 16 hex digits.
const PINNED: &str = include_str!("fixtures/fused_plan.canonical");

#[test]
fn canonical_json_and_fingerprint_are_pinned() {
    let plan = FaultPlan::parse(PLAN).expect("fixture plan is valid");
    let (json, fingerprint) = PINNED
        .trim_end()
        .split_once('\n')
        .expect("two fixture lines");
    assert_eq!(plan.to_json(), json);
    assert_eq!(format!("{:#018x}", plan.fingerprint()), fingerprint);
    assert_eq!(FaultPlan::parse(json).expect("canonical form parses"), plan);
}
