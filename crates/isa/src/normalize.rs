//! Instruction normalization for compiler-robust similarity comparison.
//!
//! Section III-B.1 of the paper normalizes instructions before computing the
//! Levenshtein distance between instruction sequences, using three rules
//! borrowed from SPAIN \[20\]:
//!
//! 1. immediate data is replaced by `imm`,
//! 2. accessed memory addresses are replaced by `mem`,
//! 3. registers are replaced by `reg`.
//!
//! `mov -0x18(%rbp), %rax` thus becomes `mov mem, reg`. The same rules apply
//! verbatim to the micro-ISA.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::inst::Inst;

/// A normalized operand: the abstraction class of the concrete operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NormOperand {
    /// Any register.
    Reg,
    /// Any immediate.
    Imm,
    /// Any memory reference.
    Mem,
}

impl fmt::Display for NormOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormOperand::Reg => write!(f, "reg"),
            NormOperand::Imm => write!(f, "imm"),
            NormOperand::Mem => write!(f, "mem"),
        }
    }
}

/// A normalized instruction: mnemonic plus abstracted operands.
///
/// Two normalized instructions compare equal exactly when the original
/// instructions have the same mnemonic and operand *classes*; concrete
/// registers, immediates, addresses, and branch targets are erased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NormInst {
    /// The instruction mnemonic (`"mov"`, `"ld"`, `"beq"`, ...).
    pub mnemonic: &'static str,
    /// Abstracted operands in syntax order (up to two).
    pub operands: [Option<NormOperand>; 2],
}

impl NormInst {
    /// Construct a normalized instruction with no operands.
    pub fn nullary(mnemonic: &'static str) -> NormInst {
        NormInst {
            mnemonic,
            operands: [None, None],
        }
    }

    /// Construct a normalized instruction with one operand.
    pub fn unary(mnemonic: &'static str, a: NormOperand) -> NormInst {
        NormInst {
            mnemonic,
            operands: [Some(a), None],
        }
    }

    /// Construct a normalized instruction with two operands.
    pub fn binary(mnemonic: &'static str, a: NormOperand, b: NormOperand) -> NormInst {
        NormInst {
            mnemonic,
            operands: [Some(a), Some(b)],
        }
    }

    /// The mnemonic's bytes (low 56 bits) and both operand classes (two
    /// bits each above them) packed into one word, or `None` for a
    /// mnemonic longer than 7 bytes. A function of exactly the fields
    /// `Eq` compares, so equal instructions pack equally.
    fn packed(&self) -> Option<u64> {
        let bytes = self.mnemonic.as_bytes();
        if bytes.len() > 7 {
            return None;
        }
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        let class = |o: Option<NormOperand>| match o {
            None => 0u64,
            Some(NormOperand::Reg) => 1,
            Some(NormOperand::Imm) => 2,
            Some(NormOperand::Mem) => 3,
        };
        Some(
            u64::from_le_bytes(word)
                | class(self.operands[0]) << 56
                | class(self.operands[1]) << 58,
        )
    }
}

/// One hasher write per instruction: interning instruction sequences
/// hashes every instruction of a repository, and the derived hash made
/// about six writes each. Consistent with the derived `Eq`.
impl Hash for NormInst {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.packed() {
            Some(word) => state.write_u64(word),
            None => {
                self.mnemonic.hash(state);
                self.operands.hash(state);
            }
        }
    }
}

impl fmt::Display for NormInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)?;
        match (self.operands[0], self.operands[1]) {
            (Some(a), Some(b)) => write!(f, " {a}, {b}"),
            (Some(a), None) => write!(f, " {a}"),
            _ => Ok(()),
        }
    }
}

/// The closed set of mnemonics normalized instructions can carry, as
/// `'static` strings (needed to parse a [`NormInst`] back from text).
const MNEMONICS: [&str; 22] = [
    "mov", "ld", "st", "cmp", "jmp", "clflush", "rdtscp", "lfence", "mfence", "vyield", "nop",
    "halt", "add", "sub", "mul", "and", "or", "xor", "shl", "shr", // AluOp
    "beq", "bne", // Cond (subset; see below for the rest)
];
const COND_MNEMONICS: [&str; 4] = ["blt", "ble", "bgt", "bge"];

fn static_mnemonic(s: &str) -> Option<&'static str> {
    MNEMONICS
        .iter()
        .chain(COND_MNEMONICS.iter())
        .find(|m| **m == s)
        .copied()
}

/// Error from parsing a [`NormInst`] out of its `Display` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNormInstError(String);

impl fmt::Display for ParseNormInstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid normalized instruction `{}`", self.0)
    }
}

impl std::error::Error for ParseNormInstError {}

impl std::str::FromStr for NormOperand {
    type Err = ParseNormInstError;

    fn from_str(s: &str) -> Result<NormOperand, ParseNormInstError> {
        match s {
            "reg" => Ok(NormOperand::Reg),
            "imm" => Ok(NormOperand::Imm),
            "mem" => Ok(NormOperand::Mem),
            other => Err(ParseNormInstError(other.to_string())),
        }
    }
}

impl std::str::FromStr for NormInst {
    type Err = ParseNormInstError;

    /// Parse the `Display` form back (`"mov reg, imm"`, `"nop"`, ...).
    fn from_str(s: &str) -> Result<NormInst, ParseNormInstError> {
        let s = s.trim();
        let (mnemonic, rest) = match s.split_once(' ') {
            Some((m, r)) => (m, r.trim()),
            None => (s, ""),
        };
        let mnemonic =
            static_mnemonic(mnemonic).ok_or_else(|| ParseNormInstError(s.to_string()))?;
        let mut operands = [None, None];
        if !rest.is_empty() {
            for (i, tok) in rest.split(',').map(str::trim).enumerate() {
                if i >= 2 {
                    return Err(ParseNormInstError(s.to_string()));
                }
                operands[i] = Some(tok.parse()?);
            }
        }
        Ok(NormInst { mnemonic, operands })
    }
}

/// Normalize one instruction per the paper's imm/mem/reg rules.
///
/// ```
/// use sca_isa::{normalize_inst, Inst, MemRef, Reg};
///
/// let i = Inst::Load { dst: Reg::R2, addr: MemRef::base_disp(Reg::R1, -0x18) };
/// assert_eq!(normalize_inst(&i).to_string(), "ld reg, mem");
/// ```
pub fn normalize_inst(inst: &Inst) -> NormInst {
    use crate::inst::Operand;
    use NormOperand::{Imm, Mem, Reg};
    let operand_class = |o: &Operand| match o {
        Operand::Reg(_) => Reg,
        Operand::Imm(_) => Imm,
    };
    match inst {
        Inst::MovImm { .. } => NormInst::binary("mov", Reg, Imm),
        Inst::MovReg { .. } => NormInst::binary("mov", Reg, Reg),
        Inst::Load { .. } => NormInst::binary("ld", Reg, Mem),
        Inst::Store { .. } => NormInst::binary("st", Mem, Reg),
        Inst::Alu { op, src, .. } => NormInst::binary(op.mnemonic(), Reg, operand_class(src)),
        Inst::Cmp { rhs, .. } => NormInst::binary("cmp", Reg, operand_class(rhs)),
        // Branch targets are code addresses: normalized to `imm` (rule 1 —
        // they are immediate data embedded in the instruction).
        Inst::Jmp { .. } => NormInst::unary("jmp", Imm),
        Inst::Br { cond, .. } => NormInst::unary(cond.mnemonic(), Imm),
        Inst::Clflush { .. } => NormInst::unary("clflush", Mem),
        Inst::Rdtscp { .. } => NormInst::unary("rdtscp", Reg),
        Inst::Fence { kind } => match kind {
            crate::inst::FenceKind::Lfence => NormInst::nullary("lfence"),
            crate::inst::FenceKind::Mfence => NormInst::nullary("mfence"),
        },
        Inst::VYield => NormInst::nullary("vyield"),
        Inst::Nop => NormInst::nullary("nop"),
        Inst::Halt => NormInst::nullary("halt"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{AluOp, Cond, MemRef, Operand, Reg};

    #[test]
    fn registers_erased() {
        let a = Inst::MovReg {
            dst: Reg::R1,
            src: Reg::R2,
        };
        let b = Inst::MovReg {
            dst: Reg::R9,
            src: Reg::R14,
        };
        assert_eq!(normalize_inst(&a), normalize_inst(&b));
    }

    #[test]
    fn immediates_erased() {
        let a = Inst::MovImm {
            dst: Reg::R1,
            imm: 1,
        };
        let b = Inst::MovImm {
            dst: Reg::R1,
            imm: 0x7fff_ffff,
        };
        assert_eq!(normalize_inst(&a), normalize_inst(&b));
    }

    #[test]
    fn memory_refs_erased() {
        let a = Inst::Load {
            dst: Reg::R1,
            addr: MemRef::abs(0x1000),
        };
        let b = Inst::Load {
            dst: Reg::R2,
            addr: MemRef::full(Reg::R5, Reg::R6, 8, -24),
        };
        assert_eq!(normalize_inst(&a), normalize_inst(&b));
        assert_eq!(normalize_inst(&a).to_string(), "ld reg, mem");
    }

    #[test]
    fn mnemonics_distinguish() {
        let add = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R1,
            src: Operand::Imm(1),
        };
        let sub = Inst::Alu {
            op: AluOp::Sub,
            dst: Reg::R1,
            src: Operand::Imm(1),
        };
        assert_ne!(normalize_inst(&add), normalize_inst(&sub));
    }

    #[test]
    fn operand_class_distinguishes_reg_from_imm_source() {
        let ri = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R1,
            src: Operand::Imm(1),
        };
        let rr = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R1,
            src: Operand::Reg(Reg::R2),
        };
        assert_ne!(normalize_inst(&ri), normalize_inst(&rr));
    }

    #[test]
    fn branch_targets_are_imm() {
        let j = Inst::Br {
            cond: Cond::Lt,
            target: 17,
        };
        assert_eq!(normalize_inst(&j).to_string(), "blt imm");
    }

    #[test]
    fn parse_roundtrips_display() {
        use crate::inst::{AluOp, Cond, MemRef, Operand, Reg};
        let insts = [
            Inst::MovImm {
                dst: Reg::R1,
                imm: 3,
            },
            Inst::Load {
                dst: Reg::R1,
                addr: MemRef::abs(0),
            },
            Inst::Store {
                src: Reg::R1,
                addr: MemRef::abs(0),
            },
            Inst::Alu {
                op: AluOp::Shr,
                dst: Reg::R1,
                src: Operand::Reg(Reg::R2),
            },
            Inst::Cmp {
                lhs: Reg::R1,
                rhs: Operand::Imm(1),
            },
            Inst::Jmp { target: 0 },
            Inst::Br {
                cond: Cond::Le,
                target: 0,
            },
            Inst::Clflush {
                addr: MemRef::abs(0),
            },
            Inst::Rdtscp { dst: Reg::R0 },
            Inst::VYield,
            Inst::Nop,
            Inst::Halt,
        ];
        for i in &insts {
            let n = normalize_inst(i);
            let parsed: NormInst = n.to_string().parse().expect("parse");
            assert_eq!(parsed, n, "{n}");
        }
        assert!("bogus reg".parse::<NormInst>().is_err());
        assert!("mov reg, imm, mem".parse::<NormInst>().is_err());
    }

    #[test]
    fn hash_agrees_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |n: &NormInst| {
            let mut state = DefaultHasher::new();
            n.hash(&mut state);
            state.finish()
        };
        // The same text at another address: `Eq` compares contents.
        let elsewhere = |m: &str| -> &'static str { Box::leak(m.to_string().into_boxed_str()) };
        let classes = [
            None,
            Some(NormOperand::Reg),
            Some(NormOperand::Imm),
            Some(NormOperand::Mem),
        ];
        // Every known mnemonic (up to 7 bytes, packed into the word) and
        // one longer than 7 bytes (hashed as a string).
        let mut all = Vec::new();
        for &m in MNEMONICS
            .iter()
            .chain(&COND_MNEMONICS)
            .chain(&["prefetchnta"])
        {
            for a in classes {
                for b in classes {
                    let inst = NormInst {
                        mnemonic: m,
                        operands: [a, b],
                    };
                    let copy = NormInst {
                        mnemonic: elsewhere(m),
                        operands: [a, b],
                    };
                    assert_eq!(inst, copy);
                    assert_eq!(hash(&inst), hash(&copy), "{inst:?}");
                    all.push(inst);
                }
            }
        }
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x, y);
                assert_ne!(hash(x), hash(y), "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn display_nullary() {
        assert_eq!(normalize_inst(&Inst::Nop).to_string(), "nop");
        assert_eq!(normalize_inst(&Inst::Halt).to_string(), "halt");
    }
}
