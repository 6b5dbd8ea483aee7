//! Parallel extent I/O: list requests built from the fragments of one
//! vectored call, issued by a scoped worker pool.
//!
//! A vectored call ([`crate::PfsFile::read_pieces`] /
//! [`crate::PfsFile::write_pieces`]) splits every memory piece into
//! per-server fragments. A fragment that continues the local run of its
//! server's open request joins that request as one more memory buffer; any
//! other fragment opens a new request. One [`Job`] is therefore one server
//! request over a contiguous run of the server's local stream, with a
//! scatter/gather list on the memory side.
//!
//! Requests to the *same* server serialize on that server's file lock, so
//! the pool keeps one queue per server and hands workers jobs from distinct
//! servers round-robin — the client-side counterpart of the paper's striped
//! I/O servers, where aggregate bandwidth comes from hitting many servers
//! at once. The calling thread is one of the workers: a call with `n`
//! workers spawns `n − 1` scoped threads and pulls jobs itself until the
//! queues run dry, so a spawn is paid only for the overlap it buys.
//!
//! The queue lock is never held across a storage call, and the pool is
//! bypassed entirely when the file system was configured with one worker
//! or with a fault injector armed — scripted fault replays depend on a
//! stable global request order. The caller's thread then takes the jobs in
//! turn one storage operation at a time, which for a contiguous range is
//! the fragments' own order.

use crate::error::{PfsError, Result};
use crate::retry::RetryPolicy;
use crate::server::IoServer;
use crate::striping::Fragment;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// The memory side of a request: a read destination or a write source.
/// Pieces are disjoint sub-slices of the caller's buffers, split ahead of
/// dispatch so workers never alias.
pub(crate) trait Piece: Sized + Send {
    fn len(&self) -> usize;
    fn split(self, at: usize) -> (Self, Self);
    /// Serve this buffer at local offset `pos` as one storage operation of
    /// the request over the local run `run`; `first` opens the request.
    fn step(
        &mut self,
        server: &IoServer,
        name: &str,
        run: (u64, u64),
        first: bool,
        pos: u64,
    ) -> Result<()>;
    /// Issue one whole list request for the local run at `local_offset`.
    fn issue(server: &IoServer, name: &str, local_offset: u64, bufs: &mut [Self]) -> Result<()>;
}

impl Piece for &mut [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn split(self, at: usize) -> (Self, Self) {
        self.split_at_mut(at)
    }

    fn step(
        &mut self,
        server: &IoServer,
        name: &str,
        run: (u64, u64),
        first: bool,
        pos: u64,
    ) -> Result<()> {
        server.serve_piece(name, run, first, false, |s| s.read_at(pos, self))
    }

    fn issue(server: &IoServer, name: &str, local_offset: u64, bufs: &mut [Self]) -> Result<()> {
        server.read_list(name, local_offset, bufs)
    }
}

impl Piece for &[u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn split(self, at: usize) -> (Self, Self) {
        self.split_at(at)
    }

    fn step(
        &mut self,
        server: &IoServer,
        name: &str,
        run: (u64, u64),
        first: bool,
        pos: u64,
    ) -> Result<()> {
        server.serve_piece(name, run, first, true, |s| s.write_at(pos, self))
    }

    fn issue(server: &IoServer, name: &str, local_offset: u64, bufs: &mut [Self]) -> Result<()> {
        server.write_list(name, local_offset, bufs)
    }
}

/// One server request: the local run `[local_offset, local_offset + len)`
/// and the memory pieces that fill it, in order.
pub(crate) struct Job<B> {
    pub server: usize,
    pub local_offset: u64,
    pub len: u64,
    pub bufs: Vec<B>,
}

/// Builds the jobs of one vectored call, in the order they open. Each
/// server has at most one open job: the one its last fragment went to.
pub(crate) struct JobList<B> {
    jobs: Vec<Job<B>>,
    open: Vec<Option<usize>>,
}

impl<B> JobList<B> {
    pub(crate) fn new(n_servers: usize) -> Self {
        JobList { jobs: Vec::new(), open: vec![None; n_servers] }
    }

    /// Add `buf` as the memory side of `frag`: it joins the server's open
    /// job when it continues that job's local run, else opens a new one.
    pub(crate) fn push(&mut self, frag: &Fragment, buf: B) {
        if let Some(job) = self.open[frag.server].and_then(|j| self.jobs.get_mut(j)) {
            if job.local_offset + job.len == frag.local_offset {
                job.len += frag.len;
                job.bufs.push(buf);
                return;
            }
        }
        self.open[frag.server] = Some(self.jobs.len());
        self.jobs.push(Job {
            server: frag.server,
            local_offset: frag.local_offset,
            len: frag.len,
            bufs: vec![buf],
        });
    }

    pub(crate) fn into_jobs(self) -> Vec<Job<B>> {
        self.jobs
    }
}

/// Per-server job queues behind one short-lived lock. Workers pull from a
/// rotating cursor so concurrent pulls land on *different* servers; the
/// first error aborts the remaining queue.
struct Dispenser<B> {
    // lock-class: state => PfsParQueue
    // lock-order: PfsParQueue is leaf-only — released before any storage
    // call, never nested with PfsFiles/PfsStats/PfsBacking.
    state: Mutex<DispState<B>>,
}

struct DispState<B> {
    queues: Vec<VecDeque<Job<B>>>,
    cursor: usize,
    error: Option<PfsError>,
}

impl<B> Dispenser<B> {
    fn new(n_servers: usize, jobs: Vec<Job<B>>) -> Self {
        let mut queues: Vec<VecDeque<Job<B>>> = (0..n_servers).map(|_| VecDeque::new()).collect();
        for job in jobs {
            queues[job.server].push_back(job);
        }
        Dispenser { state: Mutex::new(DispState { queues, cursor: 0, error: None }) }
    }

    /// Pop the next job, preferring the server after the one last served.
    fn next(&self) -> Option<Job<B>> {
        let mut st = self.state.lock();
        if st.error.is_some() {
            return None;
        }
        let n = st.queues.len();
        for step in 0..n {
            let q = (st.cursor + step) % n;
            if let Some(job) = st.queues[q].pop_front() {
                st.cursor = (q + 1) % n;
                return Some(job);
            }
        }
        None
    }

    /// Record the first failure and drop all queued work.
    fn fail(&self, e: PfsError) {
        // Take the queues out instead of clearing in place: `next` bails on
        // the recorded error before touching them, and dropping outside the
        // lock keeps the critical section free of tracked call names.
        let dropped;
        {
            let mut st = self.state.lock();
            if st.error.is_none() {
                st.error = Some(e);
            }
            dropped = std::mem::take(&mut st.queues);
        }
        drop(dropped);
    }

    fn into_result(self) -> Result<()> {
        match self.state.into_inner().error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Issue one job as a single list request, retried as a whole.
fn run_one<B: Piece>(
    servers: &[Arc<IoServer>],
    retry: &RetryPolicy,
    name: &str,
    mut job: Job<B>,
) -> Result<()> {
    let server = &servers[job.server];
    retry.run(|| B::issue(server, name, job.local_offset, &mut job.bufs))
}

/// Execute `jobs` with up to `workers` threads, the caller's among them:
/// `workers − 1` scoped threads join the caller in pulling from one
/// dispenser. With one worker (or one job) they run inline on the caller's
/// thread, see [`run_inline`].
pub(crate) fn run_jobs<B: Piece>(
    servers: &[Arc<IoServer>],
    retry: &RetryPolicy,
    name: &str,
    jobs: Vec<Job<B>>,
    workers: usize,
) -> Result<()> {
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return run_inline(servers, retry, name, jobs);
    }
    let disp = Dispenser::new(servers.len(), jobs);
    let work = || {
        while let Some(job) = disp.next() {
            if let Err(e) = run_one(servers, retry, name, job) {
                disp.fail(e);
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    disp.into_result()
}

/// Run `jobs` on the caller's thread one storage operation at a time,
/// taking the jobs in turn — for one contiguous range, the fragments' own
/// order. A long list request then never holds its server for more than
/// one operation while another thread waits for that server (the file
/// table's lock does not queue fairly). A transient error re-issues the
/// failed request whole under `retry`.
fn run_inline<B: Piece>(
    servers: &[Arc<IoServer>],
    retry: &RetryPolicy,
    name: &str,
    mut jobs: Vec<Job<B>>,
) -> Result<()> {
    // Local offset of each job's next piece; `None` once it is done.
    let mut next: Vec<Option<u64>> = jobs.iter().map(|j| Some(j.local_offset)).collect();
    let rounds = jobs.iter().map(|j| j.bufs.len()).max().unwrap_or(0);
    for i in 0..rounds {
        for (job, pos) in jobs.iter_mut().zip(&mut next) {
            let (Some(at), Some(buf)) = (*pos, job.bufs.get_mut(i)) else { continue };
            let server = &servers[job.server];
            let len = buf.len() as u64;
            match buf.step(server, name, (job.local_offset, job.len), i == 0, at) {
                Ok(()) => *pos = Some(at + len),
                Err(e) if e.is_transient() => {
                    let mut failed = Some(e);
                    retry.run(|| match failed.take() {
                        Some(e) => Err(e),
                        None => B::issue(server, name, job.local_offset, &mut job.bufs),
                    })?;
                    *pos = None;
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Backing;
    use crate::stats::CostModel;
    use crate::striping::StripeMap;

    fn servers(n: usize) -> Vec<Arc<IoServer>> {
        (0..n)
            .map(|id| {
                IoServer::with_injector(id, Backing::Memory, CostModel::flat(0, 0.0), None, None)
                    .unwrap()
            })
            .collect()
    }

    fn job<B: Piece>(server: usize, local_offset: u64, buf: B) -> Job<B> {
        Job { server, local_offset, len: buf.len() as u64, bufs: vec![buf] }
    }

    #[test]
    fn round_robin_pulls_rotate_servers() {
        let mut jobs = Vec::new();
        let mut bufs: Vec<Vec<u8>> = (0..6).map(|_| vec![0u8; 4]).collect();
        for (i, b) in bufs.iter_mut().enumerate() {
            jobs.push(job(i % 3, 0, &mut b[..]));
        }
        let disp = Dispenser::new(3, jobs);
        let order: Vec<usize> = std::iter::from_fn(|| disp.next().map(|j| j.server)).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn first_error_aborts_the_rest() {
        let empty: &[u8] = &[];
        let disp = Dispenser::new(2, vec![job(0, 0, empty), job(1, 0, empty)]);
        disp.fail(PfsError::Unavailable { server: 0 });
        assert!(disp.next().is_none());
        assert!(matches!(disp.into_result(), Err(PfsError::Unavailable { server: 0 })));
    }

    #[test]
    fn fragments_continuing_a_local_run_join_its_job() {
        // 2 servers, stripe 10: [0, 40) gives server 0 local [0, 20) and
        // server 1 local [0, 20), each one run.
        let map = StripeMap::new(2, 10).unwrap();
        let mut list = JobList::new(2);
        for frag in map.fragments(0, 40) {
            list.push(&frag, frag.global_offset);
        }
        // A fragment behind server 0's run opens a new job.
        for frag in map.fragments(0, 5) {
            list.push(&frag, frag.global_offset);
        }
        let runs: Vec<(usize, u64, u64, Vec<u64>)> = list
            .into_jobs()
            .into_iter()
            .map(|j| (j.server, j.local_offset, j.len, j.bufs))
            .collect();
        assert_eq!(
            runs,
            vec![(0, 0, 20, vec![0, 20]), (1, 0, 20, vec![10, 30]), (0, 0, 5, vec![0])]
        );
    }

    /// A test request that records the thread issuing it, then runs `act`.
    #[derive(Clone, Copy)]
    struct Probe<'a> {
        seen: &'a Mutex<Vec<std::thread::ThreadId>>,
        act: &'a (dyn Fn() -> Result<()> + Sync),
    }

    impl Piece for Probe<'_> {
        fn len(&self) -> usize {
            1
        }

        fn split(self, _at: usize) -> (Self, Self) {
            (self, self)
        }

        fn step(
            &mut self,
            s: &IoServer,
            name: &str,
            _: (u64, u64),
            _: bool,
            pos: u64,
        ) -> Result<()> {
            Self::issue(s, name, pos, std::slice::from_mut(self))
        }

        fn issue(_: &IoServer, _: &str, _: u64, bufs: &mut [Self]) -> Result<()> {
            for b in bufs {
                b.seen.lock().push(std::thread::current().id());
                (b.act)()?;
            }
            Ok(())
        }
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Every request waits for a second thread's, so two threads must
        // issue them; with two workers the caller's has to be one.
        let meet = std::sync::Barrier::new(2);
        let act = || {
            meet.wait();
            Ok(())
        };
        let seen = Mutex::new(Vec::new());
        let jobs = (0..6).map(|i| job(i % 3, 0, Probe { seen: &seen, act: &act })).collect();
        run_jobs(&servers(3), &RetryPolicy::none(), "f", jobs, 2).unwrap();
        let threads = seen.into_inner();
        assert_eq!(threads.len(), 6, "every job ran");
        assert!(threads.contains(&std::thread::current().id()), "the caller ran no job");
        let distinct: std::collections::HashSet<_> = threads.into_iter().collect();
        assert_eq!(distinct.len(), 2, "more threads than workers");
    }

    #[test]
    fn a_failure_on_the_callers_thread_aborts_the_queue() {
        // The caller's requests fail; a spawned worker's wait for word that
        // one has, so the caller is sure to pull a job while the queue is
        // full. Between the caller's failure and its marking the queue
        // failed the worker may pull another job; the abort shows in the
        // rest never running.
        let caller = std::thread::current().id();
        let failed = std::sync::atomic::AtomicUsize::new(0);
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let act = || {
            if std::thread::current().id() == caller {
                failed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let _ = tx.send(());
                return Err(PfsError::Unavailable { server: 7 });
            }
            let _ = rx.lock().recv_timeout(std::time::Duration::from_secs(5));
            Ok(())
        };
        let seen = Mutex::new(Vec::new());
        let jobs = (0..8).map(|i| job(i % 4, 0, Probe { seen: &seen, act: &act })).collect();
        let res = run_jobs(&servers(4), &RetryPolicy::none(), "f", jobs, 2);
        assert!(matches!(res, Err(PfsError::Unavailable { server: 7 })), "{res:?}");
        assert_eq!(failed.into_inner(), 1, "the caller ran one job, then stopped");
        let ran = seen.into_inner();
        assert!(ran.contains(&caller) && ran.len() < 8, "the queue ran on: {} jobs", ran.len());
    }

    #[test]
    fn parallel_jobs_write_then_read_back() {
        let sv = servers(4);
        for s in &sv {
            s.ensure_file("f").unwrap();
        }
        let retry = RetryPolicy::none();
        let data: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i + 1; 64]).collect();
        let jobs: Vec<Job<&[u8]>> =
            data.iter().enumerate().map(|(i, d)| job(i % 4, (i / 4) as u64 * 64, &d[..])).collect();
        run_jobs(&sv, &retry, "f", jobs, 4).unwrap();
        let mut bufs: Vec<Vec<u8>> = (0..8).map(|_| vec![0u8; 64]).collect();
        let jobs: Vec<Job<&mut [u8]>> = bufs
            .iter_mut()
            .enumerate()
            .map(|(i, b)| job(i % 4, (i / 4) as u64 * 64, &mut b[..]))
            .collect();
        run_jobs(&sv, &retry, "f", jobs, 4).unwrap();
        for (i, b) in bufs.iter().enumerate() {
            assert!(b.iter().all(|&x| x == i as u8 + 1), "slot {i}");
        }
    }
}
