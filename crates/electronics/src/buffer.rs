//! FIFO buffers between clock domains.
//!
//! "Buffers isolate the fast optical core from the outside slow clock
//! environment" (paper Figure 4 caption). [`FifoBuffer`] is an occupancy
//! model: the pipeline simulator pushes words in at one domain's rate and
//! drains them at the other's, and the buffer reports stalls (full on push,
//! empty on pop) which surface as pipeline bubbles.

use crate::{ElectronicError, Result};

/// Occupancy statistics of a FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Successful pushes.
    pub pushes: u64,
    /// Successful pops.
    pub pops: u64,
    /// Pushes rejected because the buffer was full.
    pub overflow_stalls: u64,
    /// Pops rejected because the buffer was empty.
    pub underflow_stalls: u64,
    /// High-water mark of occupancy.
    pub max_occupancy: usize,
}

/// A bounded FIFO of abstract words.
#[derive(Debug, Clone)]
pub struct FifoBuffer {
    capacity: usize,
    occupancy: usize,
    stats: BufferStats,
}

impl FifoBuffer {
    /// Creates a FIFO holding up to `capacity` words.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::InvalidParameter`] for zero capacity.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(ElectronicError::InvalidParameter {
                reason: "buffer capacity must be nonzero".to_owned(),
            });
        }
        Ok(FifoBuffer {
            capacity,
            occupancy: 0,
            stats: BufferStats::default(),
        })
    }

    /// Capacity in words.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy in words.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Free space in words.
    #[must_use]
    pub fn free(&self) -> usize {
        self.capacity - self.occupancy
    }

    /// Whether the FIFO is full.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupancy == self.capacity
    }

    /// Whether the FIFO is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy == 0
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Pushes `n` words; returns the number actually accepted (the rest
    /// stall and are counted).
    pub fn push(&mut self, n: usize) -> usize {
        let accepted = n.min(self.free());
        self.occupancy += accepted;
        self.stats.pushes += accepted as u64;
        self.stats.overflow_stalls += (n - accepted) as u64;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.occupancy);
        accepted
    }

    /// Pops `n` words; returns the number actually delivered.
    pub fn pop(&mut self, n: usize) -> usize {
        let delivered = n.min(self.occupancy);
        self.occupancy -= delivered;
        self.stats.pops += delivered as u64;
        self.stats.underflow_stalls += (n - delivered) as u64;
        delivered
    }

    /// Pushes exactly `n` words or fails without side effects.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::BufferViolation`] if `n` exceeds free
    /// space.
    pub fn push_exact(&mut self, n: usize) -> Result<()> {
        if n > self.free() {
            return Err(ElectronicError::BufferViolation {
                reason: format!("push of {n} words into {} free", self.free()),
            });
        }
        self.push(n);
        Ok(())
    }

    /// Pops exactly `n` words or fails without side effects.
    ///
    /// # Errors
    ///
    /// Returns [`ElectronicError::BufferViolation`] if `n` exceeds
    /// occupancy.
    pub fn pop_exact(&mut self, n: usize) -> Result<()> {
        if n > self.occupancy {
            return Err(ElectronicError::BufferViolation {
                reason: format!("pop of {n} words from {} occupied", self.occupancy),
            });
        }
        self.pop(n);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(FifoBuffer::new(0).is_err());
        assert!(FifoBuffer::new(16).is_ok());
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut f = FifoBuffer::new(8).unwrap();
        assert_eq!(f.push(5), 5);
        assert_eq!(f.occupancy(), 5);
        assert_eq!(f.pop(3), 3);
        assert_eq!(f.occupancy(), 2);
        assert_eq!(f.free(), 6);
    }

    #[test]
    fn overflow_counts_stalls() {
        let mut f = FifoBuffer::new(4).unwrap();
        assert_eq!(f.push(6), 4);
        assert!(f.is_full());
        assert_eq!(f.stats().overflow_stalls, 2);
    }

    #[test]
    fn underflow_counts_stalls() {
        let mut f = FifoBuffer::new(4).unwrap();
        f.push(1);
        assert_eq!(f.pop(3), 1);
        assert!(f.is_empty());
        assert_eq!(f.stats().underflow_stalls, 2);
    }

    #[test]
    fn exact_variants_are_atomic() {
        let mut f = FifoBuffer::new(4).unwrap();
        assert!(f.push_exact(5).is_err());
        assert_eq!(f.occupancy(), 0);
        f.push_exact(3).unwrap();
        assert!(f.pop_exact(4).is_err());
        assert_eq!(f.occupancy(), 3);
        f.pop_exact(3).unwrap();
        assert!(f.is_empty());
    }

    #[test]
    fn high_water_mark() {
        let mut f = FifoBuffer::new(8).unwrap();
        f.push(3);
        f.pop(2);
        f.push(6);
        assert_eq!(f.stats().max_occupancy, 7);
    }
}
