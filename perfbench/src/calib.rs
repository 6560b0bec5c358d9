//! Calibration kernels: two small fixed workloads owned by the benchmark.
//!
//! On a shared virtual host the same code runs 1.3–1.8× faster or slower
//! from one minute to the next. User time equals wall time, so the drift
//! is the core getting slower, not the thread losing it: another guest on
//! the core's hyperthread sibling competes for its execution ports. A raw
//! rate therefore says as much about the host as about the program. Each
//! timed batch of the program runs next to short slices of these kernels
//! on the same thread; dividing the batch's rate by the kernel's rate
//! beside it cancels the host's speed. The kernels call no repository
//! code, so a change to the program cannot move them.
//!
//! A kernel must compete for the core the way the program does. A
//! dependent chain (each step waiting on the last) leaves the ports idle
//! and barely notices a busy sibling: chains of multiplies and of table
//! lookups drifted 3 % and 11 % across runs while the program drifted
//! 25–45 %. Both kernels here are therefore throughput-bound, with
//! several independent lanes per step:
//!
//! * [`Kernel::Alu`] — a 4×4-limb 64-bit schoolbook product per step, the
//!   character of the P-256 field arithmetic;
//! * [`Kernel::Mem`] — four lanes of byte-indexed lookups in 1 KiB
//!   tables, the character of the SAFER+/AES rounds and the decoders,
//!   plus a small heap allocation every fourth step, the character of
//!   JSON parsing.

use std::hint::black_box;
use std::time::Instant;

/// Which calibration kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Multiply-bound, throughput-bound limb products.
    Alu,
    /// Table lookups plus small allocations.
    Mem,
}

impl Kernel {
    /// Both kernels, in slice order.
    pub const ALL: [Kernel; 2] = [Kernel::Alu, Kernel::Mem];

    /// The other kernel.
    pub fn other(self) -> Kernel {
        match self {
            Kernel::Alu => Kernel::Mem,
            Kernel::Mem => Kernel::Alu,
        }
    }

    /// Short name, as in the diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Alu => "alu",
            Kernel::Mem => "mem",
        }
    }

    /// The per-layer metrics of this kernel: its median rate and its two
    /// self-check ratios (after program work over after kernel slices;
    /// interleaved over standalone).
    pub fn metric_names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kernel::Alu => (
                "calib.alu_ops_per_s",
                "calib.alu_cache_ratio",
                "calib.alu_standalone_ratio",
            ),
            Kernel::Mem => (
                "calib.mem_ops_per_s",
                "calib.mem_cache_ratio",
                "calib.mem_standalone_ratio",
            ),
        }
    }

    /// Steps per slice, about 4 ms on the reference host.
    fn slice_ops(self) -> u64 {
        match self {
            Kernel::Alu => 220_000,
            Kernel::Mem => 180_000,
        }
    }

    /// The kernel's typical rate on the reference host (Intel Xeon,
    /// 2 vCPU) in steps per second. Calibrated rates are scaled by it, so
    /// they read in the workload's own unit and stay near the raw figure.
    pub fn reference_ops_per_s(self) -> f64 {
        match self {
            Kernel::Alu => 5.5e7,
            Kernel::Mem => 4.5e7,
        }
    }

    /// Checksum of one slice; the kernels are deterministic, so every
    /// slice of a kind must return the same value.
    pub fn expected_checksum(self) -> u64 {
        self.run(self.slice_ops(), &SboxTable::new())
    }

    fn run(self, ops: u64, table: &SboxTable) -> u64 {
        match self {
            Kernel::Alu => limb_products(ops),
            Kernel::Mem => sbox_lanes(ops, table),
        }
    }
}

/// The mem kernel's lookup tables: four 256-word tables (4 KiB).
pub struct SboxTable(Vec<u32>);

impl SboxTable {
    /// Builds the fixed tables.
    pub fn new() -> SboxTable {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        SboxTable(
            (0..1024)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u32
                })
                .collect(),
        )
    }
}

fn limb_products(ops: u64) -> u64 {
    let mut x = black_box([0x9E37_79B9_7F4A_7C15u64, 3, 5, 7]);
    let mut y = black_box([0xD1B5_4A32_D192_ED03u64, 11, 13, 17]);
    for _ in 0..ops {
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let t = u128::from(x[i]) * u128::from(y[j])
                    + u128::from(prod[i + j])
                    + u128::from(carry);
                prod[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            prod[i + 4] = carry;
        }
        for i in 0..4 {
            x[i] = prod[i] ^ prod[i + 4];
            y[i] = y[i].rotate_left(13) ^ prod[7 - i];
        }
    }
    x[0] ^ x[1] ^ y[2] ^ y[3]
}

fn sbox_lanes(ops: u64, table: &SboxTable) -> u64 {
    let table = &table.0;
    let mut s = black_box([0x0123_4567u32, 0x89ab_cdef, 0x0f1e_2d3c, 0x4b5a_6978]);
    let mut acc = 0u64;
    for step in 0..ops {
        let mut t = [0u32; 4];
        for i in 0..4 {
            t[i] = table[(s[i] & 0xff) as usize]
                ^ table[256 + ((s[(i + 1) % 4] >> 8) & 0xff) as usize].rotate_left(8)
                ^ table[512 + ((s[(i + 2) % 4] >> 16) & 0xff) as usize].rotate_left(16)
                ^ table[768 + (s[(i + 3) % 4] >> 24) as usize].rotate_left(24);
        }
        s = t;
        if step & 3 == 0 {
            let len = 8 + (s[0] as usize & 63);
            let mut buf = Vec::with_capacity(len);
            buf.extend((0..len as u8).map(|b| b ^ s[1] as u8));
            acc = acc.wrapping_add(u64::from(black_box(buf)[len / 2]));
        }
    }
    acc ^ u64::from(s[0] ^ s[3])
}

/// One timed kernel slice.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Kernel steps per second over the slice.
    pub ops_per_s: f64,
    /// Whether the slice returned the kernel's fixed checksum.
    pub checksum_ok: bool,
}

/// Runs kernel slices and checks them against their fixed checksums.
pub struct Kernels {
    table: SboxTable,
    expected: [u64; 2],
}

impl Kernels {
    /// Builds the kernels and computes their reference checksums.
    pub fn new() -> Kernels {
        Kernels {
            table: SboxTable::new(),
            expected: Kernel::ALL.map(Kernel::expected_checksum),
        }
    }

    /// Times one slice of `kernel`.
    pub fn slice(&self, kernel: Kernel) -> Slice {
        let ops = kernel.slice_ops();
        let started = Instant::now();
        let sum = kernel.run(black_box(ops), &self.table);
        let secs = started.elapsed().as_secs_f64();
        Slice {
            ops_per_s: ops as f64 / secs.max(1e-9),
            checksum_ok: sum == self.expected[kernel as usize],
        }
    }
}

/// A rate measured beside a kernel, expressed at the reference host's
/// speed: `raw × reference / kernel`.
pub fn calibrate_rate(raw: f64, kernel_ops_per_s: f64, reference_ops_per_s: f64) -> f64 {
    raw * reference_ops_per_s / kernel_ops_per_s
}

/// A duration measured beside a kernel, expressed at the reference host's
/// speed. Time is the inverse of rate, so it scales the other way.
pub fn calibrate_secs(secs: f64, kernel_ops_per_s: f64, reference_ops_per_s: f64) -> f64 {
    secs * kernel_ops_per_s / reference_ops_per_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_at_reference_speed_is_unchanged() {
        assert_eq!(calibrate_rate(500.0, 1.0e9, 1.0e9), 500.0);
        assert_eq!(calibrate_secs(2.5, 1.0e8, 1.0e8), 2.5);
    }

    #[test]
    fn slower_host_is_corrected_up_for_rates_and_down_for_times() {
        // Host at half speed: the kernel reads 0.5e9 and the workload
        // half its rate; calibration restores both to reference speed.
        assert_eq!(calibrate_rate(250.0, 0.5e9, 1.0e9), 500.0);
        assert_eq!(calibrate_secs(5.0, 0.5e9, 1.0e9), 2.5);
    }

    #[test]
    fn drift_common_to_kernel_and_workload_cancels() {
        let reference = 1.0e9;
        let at = |speed: f64| calibrate_rate(700.0 * speed, reference * speed, reference);
        assert!((at(0.6) - at(1.3)).abs() < 1e-9);
    }

    #[test]
    fn kernels_are_deterministic() {
        let kernels = Kernels::new();
        for kernel in Kernel::ALL {
            let slice = kernels.slice(kernel);
            assert!(slice.checksum_ok, "{kernel:?}");
            assert!(slice.ops_per_s > 0.0);
            assert_eq!(kernel.expected_checksum(), kernel.expected_checksum());
        }
    }
}
