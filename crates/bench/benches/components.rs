//! Component micro-benchmarks: the hot paths of the simulator itself.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cellsim_eib::{Eib, EibConfig, Element, FlowClass, Topology, TransferRequest};
use cellsim_kernel::{Cycle, EventQueue};
use cellsim_mem::{BankConfig, Op, XdrBank};
use cellsim_mfc::{DmaCommand, DmaKind, EffectiveAddr, Issue, LsAddr, MfcConfig, MfcEngine, TagId};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1024u64 {
                q.push(Cycle::new(i * 7 % 997), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            black_box(sum)
        })
    });
}

/// Steady state on a queue of 256 pending events, each pop rescheduling
/// its event by a delta drawn from three bands: same-cycle and near
/// (< 64), within the calendar ring's 1024-cycle span, and far beyond it
/// (up to 2^20), so pushes into the overflow and its moves back into the
/// ring are timed too.
fn bench_event_queue_mixed(c: &mut Criterion) {
    c.bench_function("kernel/event_queue_mixed_deltas_4k", |b| {
        let mut q = EventQueue::new();
        let mut rng = 0x5EEDu64;
        let mut delta = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = rng >> 33;
            match r % 8 {
                0..=4 => r % 64,
                5 | 6 => r % 1024,
                _ => r % (1 << 20),
            }
        };
        for i in 0..256u64 {
            q.push(Cycle::new(delta()), i);
        }
        b.iter(|| {
            for _ in 0..4096 {
                let (at, e) = q.pop().expect("the queue never drains");
                q.push(at + delta(), black_box(e));
            }
        })
    });
}

fn bench_eib(c: &mut Criterion) {
    c.bench_function("eib/submit_arbitrate_64", |b| {
        b.iter(|| {
            let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
            for i in 0..64u64 {
                let src = Element::spe((i % 8) as u8);
                let dst = Element::spe(((i + 1) % 8) as u8);
                eib.submit(
                    Cycle::ZERO,
                    i,
                    TransferRequest {
                        src,
                        dst,
                        bytes: 128,
                        class: FlowClass::MfcOut,
                    },
                );
            }
            let mut now = Cycle::ZERO;
            let mut granted = 0;
            while eib.has_pending() {
                granted += eib.arbitrate(now).len();
                if let Some(t) = eib.next_release_after(now) {
                    now = t;
                } else {
                    break;
                }
            }
            black_box(granted)
        })
    });
}

/// Eight SPEs each keep two 128 B transfers to their neighbour's Local
/// Store pending, and the arbiter runs every cycle rather than only at
/// reservation expiries, so most passes fall between releases (quiet
/// passes that skip the heads already refused).
fn bench_eib_every_cycle(c: &mut Criterion) {
    c.bench_function("eib/arbitrate_every_cycle_1k", |b| {
        b.iter(|| {
            let mut eib = Eib::new(Topology::cbe(), EibConfig::default());
            let mut pending = [0u32; 8];
            let mut token = 0u64;
            let mut granted = 0;
            for now in (0..1024).map(Cycle::new) {
                for spe in 0..8u8 {
                    while pending[usize::from(spe)] < 2 {
                        let request = TransferRequest {
                            src: Element::spe(spe),
                            dst: Element::spe((spe + 1) % 8),
                            bytes: 128,
                            class: FlowClass::MfcOut,
                        };
                        eib.submit(now, token * 8 + u64::from(spe), request);
                        token += 1;
                        pending[usize::from(spe)] += 1;
                    }
                }
                for (tok, _) in eib.arbitrate(now) {
                    pending[(tok % 8) as usize] -= 1;
                    granted += 1;
                }
            }
            black_box(granted)
        })
    });
}

fn bench_mfc(c: &mut Criterion) {
    c.bench_function("mfc/unroll_16k_command", |b| {
        b.iter(|| {
            let mut mfc =
                MfcEngine::new(MfcConfig::default()).expect("default MFC config is valid");
            let cmd = DmaCommand::new(
                DmaKind::Get,
                LsAddr(0),
                EffectiveAddr::Memory {
                    region: cellsim_mem::RegionId(0),
                    offset: 0,
                },
                16 * 1024,
                TagId::new(0).unwrap(),
            )
            .unwrap();
            mfc.enqueue(Cycle::ZERO, cmd).unwrap();
            let mut now = Cycle::ZERO;
            let mut packets = 0;
            loop {
                match mfc.try_issue(now) {
                    Issue::Packet(p) => {
                        packets += 1;
                        mfc.packet_delivered(now, p.token);
                        now += 1;
                    }
                    Issue::Stalled { retry_at } => now = retry_at,
                    _ => break,
                }
            }
            black_box(packets)
        })
    });
}

fn bench_bank(c: &mut Criterion) {
    c.bench_function("mem/bank_submit_1k", |b| {
        b.iter(|| {
            let mut bank = XdrBank::new(BankConfig::local_xdr());
            let mut last = Cycle::ZERO;
            for i in 0..1024 {
                let op = if i % 3 == 0 { Op::Write } else { Op::Read };
                last = bank.submit(Cycle::ZERO, op, 128).data_ready;
            }
            black_box(last)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_mixed,
    bench_eib,
    bench_eib_every_cycle,
    bench_mfc,
    bench_bank
);
criterion_main!(benches);
