//! Execution devices and the simulated-GPU timing model.

use std::time::Duration;

/// Statistics from one graph execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Wall-clock time actually spent computing on this machine.
    pub wall: Duration,
    /// Device-model time: equals `wall` on CPU; on the simulated GPU it is
    /// the analytic latency+throughput estimate. Benchmarks report this.
    pub simulated: Duration,
    /// Floating-point operations executed (analytic count).
    pub flops: u64,
    /// Bytes moved across the host/device boundary (inputs + outputs).
    pub transferred_bytes: u64,
}

impl RunStats {
    /// Accumulate another run into this one (batch loops).
    pub fn accumulate(&mut self, other: RunStats) {
        self.wall += other.wall;
        self.simulated += other.simulated;
        self.flops += other.flops;
        self.transferred_bytes += other.transferred_bytes;
    }
}

/// Parameters of the simulated GPU.
///
/// The paper's Fig. 2(d) runs on an Nvidia K80. This environment has no
/// GPU, so per the substitution rule the device executes the *same CPU
/// kernels* (outputs are identical) and reports an analytic execution time:
///
/// ```text
/// t = launch_latency + transferred_bytes / pcie_bandwidth + flops / throughput
/// ```
///
/// Defaults approximate a K80-class card on *small-batch inference GEMMs*
/// (not peak FLOPs): a few milliseconds of fixed kernel-launch/driver
/// overhead per inference call, ~6 GB/s effective PCIe transfer, and
/// ~25 GFLOP/s effective throughput — roughly 15× this crate's scalar CPU
/// kernels, matching the ~15× large-batch speedup the paper measures in
/// Fig. 2(d). The *shape* this produces — latency-bound (no better than
/// CPU) at small batch, throughput-bound (order-of-magnitude faster) at
/// large batch — is the phenomenon Fig. 2(d) reports; see "Substitutions"
/// in `ARCHITECTURE.md`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Fixed overhead per inference call (kernel launches, driver).
    pub launch_latency: Duration,
    /// Sustained FLOP/s of the simulated card.
    pub flops_per_sec: f64,
    /// Effective host<->device bandwidth, bytes/s.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            launch_latency: Duration::from_micros(3000),
            flops_per_sec: 2.5e10,
            bandwidth_bytes_per_sec: 6.0e9,
        }
    }
}

impl GpuModel {
    /// Simulated execution time for a run.
    pub fn simulate(&self, flops: u64, transferred_bytes: u64) -> Duration {
        let compute = flops as f64 / self.flops_per_sec;
        let transfer = transferred_bytes as f64 / self.bandwidth_bytes_per_sec;
        self.launch_latency + Duration::from_secs_f64(compute + transfer)
    }
}

/// Where a session executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Device {
    /// Host CPU. `threads` bounds intra-query parallelism for batched runs.
    Cpu { threads: usize },
    /// The simulated GPU (see [`GpuModel`]).
    SimulatedGpu(GpuModel),
}

impl Default for Device {
    fn default() -> Self {
        Device::cpu_single()
    }
}

impl Device {
    /// Single-threaded CPU device (the standalone-ORT configuration).
    pub fn cpu_single() -> Device {
        Device::Cpu { threads: 1 }
    }

    /// CPU device using up to all available cores.
    pub fn cpu_parallel() -> Device {
        Device::Cpu {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Default simulated GPU.
    pub fn simulated_gpu() -> Device {
        Device::SimulatedGpu(GpuModel::default())
    }

    /// Thread budget for batched execution (1 on the simulated GPU: the
    /// host side submits work serially).
    pub fn threads(&self) -> usize {
        match self {
            Device::Cpu { threads } => (*threads).max(1),
            Device::SimulatedGpu(_) => 1,
        }
    }

    /// Convert measured wall time + counters into device-model time.
    pub fn simulate(&self, wall: Duration, flops: u64, transferred_bytes: u64) -> Duration {
        match self {
            Device::Cpu { .. } => wall,
            Device::SimulatedGpu(model) => model.simulate(flops, transferred_bytes),
        }
    }

    /// True if this device reports analytic (not wall-clock) times.
    pub fn is_simulated(&self) -> bool {
        matches!(self, Device::SimulatedGpu(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_simulated_equals_wall() {
        let d = Device::cpu_single();
        let wall = Duration::from_millis(7);
        assert_eq!(d.simulate(wall, 1_000_000, 4096), wall);
        assert!(!d.is_simulated());
        assert_eq!(d.threads(), 1);
    }

    #[test]
    fn gpu_latency_floor() {
        let model = GpuModel::default();
        // A tiny run is dominated by launch latency.
        let t = model.simulate(1000, 1000);
        assert!(t >= model.launch_latency);
        assert!(t < model.launch_latency + Duration::from_micros(10));
    }

    #[test]
    fn gpu_throughput_scaling() {
        let model = GpuModel {
            launch_latency: Duration::ZERO,
            flops_per_sec: 1e9,
            bandwidth_bytes_per_sec: 1e9,
        };
        let t = model.simulate(2_000_000_000, 0);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        let t = model.simulate(0, 500_000_000);
        assert!((t.as_secs_f64() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gpu_device_single_host_thread() {
        let d = Device::simulated_gpu();
        assert!(d.is_simulated());
        assert_eq!(d.threads(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = RunStats {
            wall: Duration::from_millis(1),
            simulated: Duration::from_millis(2),
            flops: 10,
            transferred_bytes: 100,
        };
        a.accumulate(RunStats {
            wall: Duration::from_millis(3),
            simulated: Duration::from_millis(4),
            flops: 5,
            transferred_bytes: 50,
        });
        assert_eq!(a.wall, Duration::from_millis(4));
        assert_eq!(a.simulated, Duration::from_millis(6));
        assert_eq!(a.flops, 15);
        assert_eq!(a.transferred_bytes, 150);
    }
}
