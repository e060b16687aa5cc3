//! The twenty pipeline processes (Fig. 5 of the paper).
//!
//! Each submodule implements one process (or a pair sharing code, like the
//! two "separate by components" processes). Every process is a pure function
//! of the work-directory contents: it reads its input artifacts, computes,
//! and writes its output artifacts, so the plan graphs can order and
//! parallelize them freely as long as the dependencies of
//! [`crate::plan`] are respected.

pub mod analyze;
pub mod filter;
pub mod filterinit;
pub mod flags;
pub mod fourier;
pub mod gather;
pub mod gemgen;
pub mod metainit;
pub mod plots;
pub mod respspec;
pub mod rotdgen;
pub mod separate;

use serde::{Deserialize, Serialize};

/// Identifier of one of the twenty processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProcessId(pub u8);

/// Workload category of a process (legend of Figs. 5–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProcessKind {
    /// Dominated by file reads/writes.
    HeavyIo,
    /// Dominated by floating-point computation.
    HeavyFlops,
    /// Produces plot files.
    Plotting,
    /// Negligible cost (metadata/flag initialization).
    Light,
}

/// Implementation language in the original system (C++ driver or Fortran
/// program) — retained because the paper's parallelization strategy is
/// chosen per language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Language {
    /// C++ host code.
    Cpp,
    /// Legacy Fortran program.
    Fortran,
}

/// Static description of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process number (0–19).
    pub id: ProcessId,
    /// Human-readable name.
    pub name: &'static str,
    /// Workload category.
    pub kind: ProcessKind,
    /// Original implementation language.
    pub language: Language,
    /// True for the redundant processes removed by the optimized version
    /// (#6, #12, #14).
    pub redundant: bool,
}

/// The full process table, indexed by process number.
pub const PROCESS_TABLE: [ProcessInfo; 20] = {
    use Language::*;
    use ProcessKind::*;
    [
        ProcessInfo {
            id: ProcessId(0),
            name: "Initialize flags",
            kind: Light,
            language: Cpp,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(1),
            name: "Gather input data files",
            kind: HeavyIo,
            language: Cpp,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(2),
            name: "Initialize filter parameters",
            kind: Light,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(3),
            name: "Separate data by components",
            kind: HeavyIo,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(4),
            name: "Apply default filters",
            kind: HeavyFlops,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(5),
            name: "Initialize metadata files",
            kind: Light,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(6),
            name: "Plot uncorrected signals",
            kind: Plotting,
            language: Fortran,
            redundant: true,
        },
        ProcessInfo {
            id: ProcessId(7),
            name: "Apply Fourier transformation",
            kind: HeavyFlops,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(8),
            name: "Initialize filelist metadata",
            kind: Light,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(9),
            name: "Plot Fourier spectrum",
            kind: Plotting,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(10),
            name: "Obtain FSL & FPL values",
            kind: HeavyFlops,
            language: Cpp,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(11),
            name: "Initialize flags",
            kind: Light,
            language: Cpp,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(12),
            name: "Separate data by components (again)",
            kind: HeavyIo,
            language: Fortran,
            redundant: true,
        },
        ProcessInfo {
            id: ProcessId(13),
            name: "Obtain corrected signals",
            kind: HeavyFlops,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(14),
            name: "Initialize metadata files (again)",
            kind: Light,
            language: Fortran,
            redundant: true,
        },
        ProcessInfo {
            id: ProcessId(15),
            name: "Plot accelerograph",
            kind: Plotting,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(16),
            name: "Response spectrum calculation",
            kind: HeavyFlops,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(17),
            name: "Initialize filelist metadata",
            kind: Light,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(18),
            name: "Plot response spectrum",
            kind: Plotting,
            language: Fortran,
            redundant: false,
        },
        ProcessInfo {
            id: ProcessId(19),
            name: "Generate GEM files",
            kind: HeavyIo,
            language: Cpp,
            redundant: false,
        },
    ]
};

/// Looks up a process description.
pub fn process_info(id: ProcessId) -> &'static ProcessInfo {
    &PROCESS_TABLE[id.0 as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_complete_and_ordered() {
        assert_eq!(PROCESS_TABLE.len(), 20);
        for (i, p) in PROCESS_TABLE.iter().enumerate() {
            assert_eq!(p.id.0 as usize, i);
        }
    }

    #[test]
    fn redundant_processes_match_paper() {
        let redundant: Vec<u8> = PROCESS_TABLE
            .iter()
            .filter(|p| p.redundant)
            .map(|p| p.id.0)
            .collect();
        assert_eq!(redundant, vec![6, 12, 14]);
    }

    #[test]
    fn lookup_works() {
        assert_eq!(
            process_info(ProcessId(16)).name,
            "Response spectrum calculation"
        );
        assert_eq!(process_info(ProcessId(16)).kind, ProcessKind::HeavyFlops);
    }
}
