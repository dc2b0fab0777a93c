//! Unified Shared Memory allocations (paper §4.2).
//!
//! The paper chooses USM over buffers/accessors because it "allows us to
//! work in a style similar to working with C++ pointers": one allocation
//! visible from host and device. [`UsmBuffer`] reproduces the three USM
//! allocation kinds and counts the host↔device migrations that a real
//! runtime would perform, so tests (and the benchmark harness) can assert
//! data-movement behaviour.

use std::cell::Cell;

/// USM allocation kind (`malloc_host` / `malloc_device` / `malloc_shared`).
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum AllocKind {
    /// Host-resident; device access is remote (no migration).
    Host,
    /// Device-resident; host access requires an explicit copy-out.
    Device,
    /// Shared; the runtime migrates pages on demand.
    Shared,
}

/// Where a shared allocation currently resides.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
enum Residence {
    Host,
    Device,
}

/// A typed USM allocation.
///
/// # Example
///
/// ```
/// use pic_device::{AllocKind, UsmBuffer};
///
/// let mut buf = UsmBuffer::<f32>::new(AllocKind::Shared, 1024);
/// buf.host_mut()[0] = 42.0;        // host touch
/// buf.device_touch();              // kernel launch migrates to device
/// assert_eq!(buf.migrations(), 1);
/// assert_eq!(buf.host()[0], 42.0); // host touch migrates back
/// assert_eq!(buf.migrations(), 2);
/// ```
#[derive(Debug)]
pub struct UsmBuffer<T> {
    kind: AllocKind,
    data: Vec<T>,
    residence: Cell<Residence>,
    migrations: Cell<usize>,
}

impl<T: Clone + Default> UsmBuffer<T> {
    /// Allocates `len` default-initialized elements.
    pub fn new(kind: AllocKind, len: usize) -> UsmBuffer<T> {
        UsmBuffer {
            kind,
            data: vec![T::default(); len],
            residence: Cell::new(Residence::Host),
            migrations: Cell::new(0),
        }
    }

    /// Allocates from existing host data.
    pub fn from_vec(kind: AllocKind, data: Vec<T>) -> UsmBuffer<T> {
        UsmBuffer {
            kind,
            data,
            residence: Cell::new(Residence::Host),
            migrations: Cell::new(0),
        }
    }
}

impl<T> UsmBuffer<T> {
    /// Allocation kind.
    pub fn kind(&self) -> AllocKind {
        self.kind
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Host↔device migrations performed so far (shared allocations only;
    /// host and device allocations never migrate).
    pub fn migrations(&self) -> usize {
        self.migrations.get()
    }

    fn touch(&self, target: Residence) {
        if self.kind == AllocKind::Shared && self.residence.get() != target {
            self.residence.set(target);
            self.migrations.set(self.migrations.get() + 1);
        }
    }

    /// Read access from the host.
    ///
    /// # Panics
    ///
    /// Panics for [`AllocKind::Device`] allocations — device memory is not
    /// host-accessible; use [`copy_to_host`](Self::copy_to_host).
    pub fn host(&self) -> &[T] {
        assert!(
            self.kind != AllocKind::Device,
            "host access to a device allocation; use copy_to_host"
        );
        self.touch(Residence::Host);
        &self.data
    }

    /// Mutable access from the host.
    ///
    /// # Panics
    ///
    /// Panics for [`AllocKind::Device`] allocations.
    pub fn host_mut(&mut self) -> &mut [T] {
        assert!(
            self.kind != AllocKind::Device,
            "host access to a device allocation; use copy_to_host"
        );
        self.touch(Residence::Host);
        &mut self.data
    }

    /// Records a device-side access (called by the executor at kernel
    /// launch).
    pub fn device_touch(&self) {
        self.touch(Residence::Device);
    }

    /// Device-side view (the simulated device executes on the host, so
    /// this is the same memory — after accounting the migration).
    pub fn device(&self) -> &[T] {
        self.device_touch();
        &self.data
    }

    /// Device-side mutable view.
    pub fn device_mut(&mut self) -> &mut [T] {
        self.device_touch();
        &mut self.data
    }

    /// Explicit copy-out for device allocations (a `memcpy` in SYCL).
    pub fn copy_to_host(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.data.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_migrates_on_alternating_access() {
        let mut b = UsmBuffer::<u32>::new(AllocKind::Shared, 4);
        assert_eq!(b.migrations(), 0);
        b.host_mut()[1] = 7;
        assert_eq!(b.migrations(), 0); // starts host-resident
        b.device_touch();
        b.device_touch(); // second touch on the same side is free
        assert_eq!(b.migrations(), 1);
        assert_eq!(b.host()[1], 7);
        assert_eq!(b.migrations(), 2);
    }

    #[test]
    fn host_allocation_never_migrates() {
        let b = UsmBuffer::<f64>::new(AllocKind::Host, 8);
        b.device_touch();
        let _ = b.host();
        assert_eq!(b.migrations(), 0);
    }

    #[test]
    #[should_panic(expected = "device allocation")]
    fn device_allocation_blocks_host_access() {
        let b = UsmBuffer::<f64>::new(AllocKind::Device, 8);
        let _ = b.host();
    }

    #[test]
    fn device_allocation_copy_out() {
        let mut b = UsmBuffer::<u8>::from_vec(AllocKind::Device, vec![1, 2, 3]);
        b.device_mut()[0] = 9;
        assert_eq!(b.copy_to_host(), vec![9, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }
}
