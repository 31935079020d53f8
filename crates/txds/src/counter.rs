//! A transactional counter cell.

use gocc_htm::{Tx, TxResult, TxVar};

/// A `u64` counter updated inside critical sections.
///
/// The building block of the Tally-style metric workloads: counters,
/// histogram buckets and gauge timestamps are all counter cells.
#[derive(Debug, Default)]
pub struct TxCounter {
    value: TxVar<u64>,
}

impl TxCounter {
    /// Creates a counter at `initial`.
    #[must_use]
    pub fn new(initial: u64) -> Self {
        TxCounter {
            value: TxVar::new(initial),
        }
    }

    /// Current value.
    pub fn get<'a>(&'a self, tx: &mut Tx<'a>) -> TxResult<u64> {
        tx.read(&self.value)
    }

    /// Adds `delta` (wrapping), returning the new value.
    pub fn add<'a>(&'a self, tx: &mut Tx<'a>, delta: u64) -> TxResult<u64> {
        let old = tx.update(&self.value, |v| v.wrapping_add(delta))?;
        Ok(old.wrapping_add(delta))
    }

    /// Stores `value`.
    pub fn set<'a>(&'a self, tx: &mut Tx<'a>, value: u64) -> TxResult<()> {
        tx.write(&self.value, value)
    }

    /// Resets to zero and returns the previous value (metric snapshotting).
    pub fn take<'a>(&'a self, tx: &mut Tx<'a>) -> TxResult<u64> {
        tx.update(&self.value, |_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gocc_htm::{HtmConfig, HtmRuntime};

    #[test]
    fn add_set_take() {
        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let c = TxCounter::new(5);
        let mut tx = Tx::fast(&rt);
        assert_eq!(c.get(&mut tx).unwrap(), 5);
        assert_eq!(c.add(&mut tx, 3).unwrap(), 8);
        c.set(&mut tx, 100).unwrap();
        assert_eq!(c.take(&mut tx).unwrap(), 100);
        assert_eq!(c.get(&mut tx).unwrap(), 0);
        tx.commit().unwrap();
    }

    #[test]
    fn add_wraps() {
        let rt = HtmRuntime::new(HtmConfig::coffee_lake());
        let c = TxCounter::new(u64::MAX);
        let mut tx = Tx::fast(&rt);
        assert_eq!(c.add(&mut tx, 1).unwrap(), 0);
        tx.commit().unwrap();
    }
}
