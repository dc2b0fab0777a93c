//! Execution targets.

use pic_perfmodel::GpuModel;
use pic_runtime::ExecTarget;

/// How a device executes kernels.
#[derive(Clone, Debug)]
pub enum Backend {
    /// Real execution on the host, timed by wall clock.
    HostCpu,
    /// Functional execution on the host, with elapsed time reported from
    /// the GPU performance model (hardware-substitution per DESIGN.md).
    SimulatedGpu {
        /// The modeled device.
        model: GpuModel,
    },
}

/// An execution target a [`crate::DeviceExecutor`] can be bound to — the
/// analogue of a SYCL `device`.
///
/// # Example
///
/// ```
/// use pic_device::Device;
///
/// let gpu = Device::iris_xe_max();
/// assert!(gpu.is_gpu());
/// assert_eq!(gpu.name(), "Iris Xe Max");
///
/// let cpu = Device::host_default();
/// assert!(!cpu.is_gpu());
/// ```
#[derive(Clone, Debug)]
pub struct Device {
    name: String,
    backend: Backend,
}

impl Device {
    /// The host CPU — what a default SYCL CPU selector would give.
    pub fn host_default() -> Device {
        Device {
            name: "Host CPU".to_string(),
            backend: Backend::HostCpu,
        }
    }

    /// The simulated Intel UHD P630.
    pub fn p630() -> Device {
        Device::simulated_gpu(GpuModel::p630())
    }

    /// The simulated Intel Iris Xe Max.
    pub fn iris_xe_max() -> Device {
        Device::simulated_gpu(GpuModel::iris_xe_max())
    }

    /// A simulated GPU from an arbitrary model.
    pub fn simulated_gpu(model: GpuModel) -> Device {
        Device {
            name: model.spec.name.to_string(),
            backend: Backend::SimulatedGpu { model },
        }
    }

    /// Human-readable device name (Table 1 names for the paper GPUs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` for (simulated) GPU devices.
    pub fn is_gpu(&self) -> bool {
        matches!(self.backend, Backend::SimulatedGpu { .. })
    }

    /// The execution backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The device for a [`pic_runtime::ExecTarget`] — the bridge from
    /// the runtime-level target vocabulary (which the bench harness and
    /// the job service speak) to an executable device.
    pub fn from_target(target: ExecTarget) -> Device {
        match target {
            ExecTarget::Host => Device::host_default(),
            ExecTarget::P630 => Device::p630(),
            ExecTarget::IrisXeMax => Device::iris_xe_max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_devices_have_table1_names() {
        assert_eq!(Device::p630().name(), "P630");
        assert_eq!(Device::iris_xe_max().name(), "Iris Xe Max");
    }

    #[test]
    fn from_target_covers_every_exec_target() {
        assert!(!Device::from_target(ExecTarget::Host).is_gpu());
        assert_eq!(Device::from_target(ExecTarget::P630).name(), "P630");
        assert_eq!(
            Device::from_target(ExecTarget::IrisXeMax).name(),
            "Iris Xe Max"
        );
    }

    #[test]
    fn backend_matches_kind() {
        match Device::p630().backend() {
            Backend::SimulatedGpu { model } => assert_eq!(model.spec.name, "P630"),
            other => panic!("unexpected backend {other:?}"),
        }
    }
}
