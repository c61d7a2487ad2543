//! Property-based tests for the simulated CPU: trace bookkeeping
//! consistency and determinism over arbitrary (bounded) programs.
//! Randomized inputs come from seeded [`SmallRng`] loops so runs are
//! deterministic.

use sca_cpu::{CpuConfig, HpcEvent, Machine, Victim};
use sca_isa::rng::SmallRng;
use sca_isa::{AluOp, Cond, Inst, MemRef, Operand, Program, Reg};

/// Opcode skeletons; branch targets fixed up to stay in range.
#[derive(Debug, Clone, Copy)]
enum Skel {
    MovImm(i16),
    Load(u16),
    Store(u16),
    Alu(i16),
    Cmp(i16),
    Jmp(usize),
    Br(usize),
    Flush(u16),
    Rdtscp,
    Yield,
    Nop,
}

fn arb_skeleton(rng: &mut SmallRng) -> Vec<Skel> {
    let n = rng.gen_range(1..48usize);
    (0..n)
        .map(|_| match rng.gen_range(0..11u32) {
            0 => Skel::MovImm(rng.gen()),
            1 => Skel::Load(rng.gen()),
            2 => Skel::Store(rng.gen()),
            3 => Skel::Alu(rng.gen()),
            4 => Skel::Cmp(rng.gen()),
            5 => Skel::Jmp(rng.gen_range(0..64usize)),
            6 => Skel::Br(rng.gen_range(0..64usize)),
            7 => Skel::Flush(rng.gen()),
            8 => Skel::Rdtscp,
            9 => Skel::Yield,
            _ => Skel::Nop,
        })
        .collect()
}

fn materialize(skels: Vec<Skel>) -> Program {
    let n = skels.len() + 1;
    let insts: Vec<Inst> = skels
        .into_iter()
        .map(|s| match s {
            Skel::MovImm(v) => Inst::MovImm {
                dst: Reg::R1,
                imm: i64::from(v),
            },
            Skel::Load(a) => Inst::Load {
                dst: Reg::R2,
                addr: MemRef::abs(i64::from(a) * 8),
            },
            Skel::Store(a) => Inst::Store {
                src: Reg::R2,
                addr: MemRef::abs(i64::from(a) * 8),
            },
            Skel::Alu(v) => Inst::Alu {
                op: AluOp::Add,
                dst: Reg::R1,
                src: Operand::Imm(i64::from(v)),
            },
            Skel::Cmp(v) => Inst::Cmp {
                lhs: Reg::R1,
                rhs: Operand::Imm(i64::from(v)),
            },
            Skel::Jmp(t) => Inst::Jmp { target: t % n },
            Skel::Br(t) => Inst::Br {
                cond: Cond::Lt,
                target: t % n,
            },
            Skel::Flush(a) => Inst::Clflush {
                addr: MemRef::abs(i64::from(a) * 8),
            },
            Skel::Rdtscp => Inst::Rdtscp { dst: Reg::R3 },
            Skel::Yield => Inst::VYield,
            Skel::Nop => Inst::Nop,
        })
        .chain(std::iter::once(Inst::Halt))
        .collect();
    Program::from_parts("prop", insts, Default::default())
}

fn bounded_cpu() -> CpuConfig {
    CpuConfig {
        max_steps: 4_000,
        ..CpuConfig::default()
    }
}

/// Global event totals equal the sum of the per-address attributions.
#[test]
fn totals_equal_per_address_sums() {
    let mut rng = SmallRng::seed_from_u64(0xcb_0001);
    for _ in 0..64 {
        let p = materialize(arb_skeleton(&mut rng));
        let t = Machine::new(bounded_cpu())
            .run(&p, &Victim::None)
            .expect("run");
        for e in HpcEvent::ALL {
            let sum: u64 = t.inst_events.values().map(|c| c[e]).sum();
            assert_eq!(sum, t.totals[e], "event {} mismatch", e.name());
        }
    }
}

/// Every trace key refers to a real instruction of the program, and
/// cycles dominate committed steps.
#[test]
fn trace_keys_are_program_addresses() {
    let mut rng = SmallRng::seed_from_u64(0xcb_0002);
    for _ in 0..64 {
        let p = materialize(arb_skeleton(&mut rng));
        let t = Machine::new(bounded_cpu())
            .run(&p, &Victim::None)
            .expect("run");
        for addr in t.inst_events.keys().chain(t.first_seen.keys()) {
            assert!(p.index_of_addr(*addr).is_some(), "alien address {addr:#x}");
        }
        for addr in t.inst_accesses.keys() {
            assert!(p.index_of_addr(*addr).is_some());
        }
        assert!(t.cycles >= t.steps, "each step costs at least one cycle");
        assert!(t.steps <= 4_000);
    }
}

/// Execution is a pure function of (program, victim, config).
#[test]
fn runs_are_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xcb_0003);
    for _ in 0..64 {
        let p = materialize(arb_skeleton(&mut rng));
        let run = || {
            Machine::new(bounded_cpu())
                .run(&p, &Victim::None)
                .expect("run")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.first_seen, b.first_seen);
        assert_eq!(a.samples, b.samples);
    }
}

/// Traced data accesses are line-aligned (the PT substitute reports
/// lines, like the modeling pipeline expects).
#[test]
fn traced_accesses_are_line_aligned() {
    let mut rng = SmallRng::seed_from_u64(0xcb_0004);
    for _ in 0..64 {
        let p = materialize(arb_skeleton(&mut rng));
        let t = Machine::new(bounded_cpu())
            .run(&p, &Victim::None)
            .expect("run");
        for accesses in t.inst_accesses.values() {
            for a in accesses {
                assert_eq!(a % 64, 0, "unaligned traced access {a:#x}");
            }
        }
    }
}
