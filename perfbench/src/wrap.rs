//! Wrappers the benchmark puts around every store, log and durable
//! medium it hands the system. They count each call (always) and open
//! a span around it (when the span recorder is on), then forward to
//! the wrapped object unchanged.

use crate::spans::{self, Backend, Layer};
use ooc_core::DurableMedium;
use ooc_runtime::{AccessRecord, LogStore, MeasuredIo, Store, ELEM_BYTES};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Call and element counts of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `read_run` calls.
    pub read_calls: u64,
    /// `write_run` calls.
    pub write_calls: u64,
    /// Elements read.
    pub read_elems: u64,
    /// Elements written.
    pub write_elems: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.read_elems += other.read_elems;
        self.write_elems += other.write_elems;
    }

    /// `self - earlier`, counter by counter.
    #[must_use]
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            read_calls: self.read_calls - earlier.read_calls,
            write_calls: self.write_calls - earlier.write_calls,
            read_elems: self.read_elems - earlier.read_elems,
            write_elems: self.write_elems - earlier.write_elems,
        }
    }

    /// Calls, reads plus writes.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Bytes moved, reads plus writes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.read_elems + self.write_elems) * ELEM_BYTES
    }
}

/// The shared counters of one wrapped store. The executors reset a
/// store's metrics once seeding is done and read them once before the
/// final dump; the probe snapshots its counts at both points, so the
/// compute phase can be compared with the executor's own accounting.
#[derive(Debug, Default)]
pub struct Probe {
    read_calls: AtomicU64,
    write_calls: AtomicU64,
    read_elems: AtomicU64,
    write_elems: AtomicU64,
    phase: Mutex<(Option<Counts>, Option<Counts>)>,
}

impl Probe {
    /// Everything counted so far.
    #[must_use]
    pub fn counts(&self) -> Counts {
        Counts {
            read_calls: self.read_calls.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            read_elems: self.read_elems.load(Ordering::Relaxed),
            write_elems: self.write_elems.load(Ordering::Relaxed),
        }
    }

    /// Calls counted between the metrics reset after seeding and the
    /// last metrics read before the final dump, when both happened.
    #[must_use]
    pub fn compute_phase(&self) -> Option<Counts> {
        match *self.phase.lock().expect("probe phase") {
            (Some(start), Some(end)) => Some(end.since(&start)),
            _ => None,
        }
    }
}

/// A data or sidecar store with a [`Probe`] and a span per call.
pub struct TimedStore<S> {
    inner: S,
    probe: Arc<Probe>,
    read: Layer,
    write: Layer,
}

impl<S: Store> TimedStore<S> {
    /// Wraps a data-plane store over `backend`.
    pub fn data(inner: S, backend: Backend) -> Self {
        Self::new(inner, Layer::StoreRead(backend), Layer::StoreWrite(backend))
    }

    /// Wraps a checksum sidecar store.
    pub fn sidecar(inner: S) -> Self {
        Self::new(inner, Layer::Sidecar, Layer::Sidecar)
    }

    fn new(inner: S, read: Layer, write: Layer) -> Self {
        TimedStore {
            inner,
            probe: Arc::default(),
            read,
            write,
        }
    }

    /// The store's counters, shared with the wrapper.
    #[must_use]
    pub fn probe(&self) -> Arc<Probe> {
        Arc::clone(&self.probe)
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        let _span = spans::enter(self.read);
        let out = self.inner.read_run(offset, buf);
        self.probe.read_calls.fetch_add(1, Ordering::Relaxed);
        self.probe
            .read_elems
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        out
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        let _span = spans::enter(self.write);
        let out = self.inner.write_run(offset, buf);
        self.probe.write_calls.fetch_add(1, Ordering::Relaxed);
        self.probe
            .write_elems
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        out
    }

    fn reset_metrics(&mut self) {
        self.probe.phase.lock().expect("probe phase").0 = Some(self.probe.counts());
        self.inner.reset_metrics();
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        self.probe.phase.lock().expect("probe phase").1 = Some(self.probe.counts());
        self.inner.metrics()
    }

    fn access_log(&self) -> Option<Vec<AccessRecord>> {
        self.inner.access_log()
    }
}

/// Counters of one wrapped log (journal or manifest).
#[derive(Debug, Default)]
pub struct LogProbe {
    /// Appends.
    pub appends: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// Reads and truncations.
    pub other_calls: AtomicU64,
}

/// A journal or manifest log with a [`LogProbe`] and a span per call.
pub struct TimedLog {
    inner: Box<dyn LogStore>,
    probe: Arc<LogProbe>,
}

impl LogStore for TimedLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _span = spans::enter(Layer::Journal);
        self.probe.appends.fetch_add(1, Ordering::Relaxed);
        self.probe
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(bytes)
    }

    fn read_all(&self) -> io::Result<Vec<u8>> {
        let _span = spans::enter(Layer::Journal);
        self.probe.other_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.read_all()
    }

    fn truncate(&mut self) -> io::Result<()> {
        let _span = spans::enter(Layer::Journal);
        self.probe.other_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.truncate()
    }

    fn truncate_to(&mut self, len: u64) -> io::Result<()> {
        let _span = spans::enter(Layer::Journal);
        self.probe.other_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.truncate_to(len)
    }
}

/// A durable medium whose data stores, sidecars, journal and manifest
/// all come back wrapped.
pub struct TimedMedium<M> {
    inner: M,
    /// Probes of the data stores handed out.
    pub data: Vec<Arc<Probe>>,
    /// Probes of the sidecars handed out.
    pub sidecars: Vec<Arc<Probe>>,
    /// Probes of the journal and manifest logs handed out.
    pub logs: Vec<Arc<LogProbe>>,
}

impl<M: DurableMedium> TimedMedium<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimedMedium {
            inner,
            data: Vec::new(),
            sidecars: Vec::new(),
            logs: Vec::new(),
        }
    }

    fn log(&mut self, inner: Box<dyn LogStore>) -> Box<dyn LogStore> {
        let probe = Arc::<LogProbe>::default();
        self.logs.push(Arc::clone(&probe));
        Box::new(TimedLog { inner, probe })
    }
}

impl<M: DurableMedium> DurableMedium for TimedMedium<M> {
    fn data(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        let store = TimedStore::data(self.inner.data(a, name, len)?, Backend::File);
        self.data.push(store.probe());
        Ok(Box::new(store))
    }

    fn sidecar(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        let store = TimedStore::sidecar(self.inner.sidecar(a, name, len)?);
        self.sidecars.push(store.probe());
        Ok(Box::new(store))
    }

    fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
        let inner = self.inner.journal()?;
        Ok(self.log(inner))
    }

    fn manifest(&mut self) -> io::Result<Box<dyn LogStore>> {
        let inner = self.inner.manifest()?;
        Ok(self.log(inner))
    }
}

/// Sums the probes' counts.
#[must_use]
pub fn total(probes: &[Arc<Probe>]) -> Counts {
    let mut out = Counts::default();
    for p in probes {
        out.add(&p.counts());
    }
    out
}
