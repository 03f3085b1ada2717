//! Known-bad fixture: wall-clock time, OS threads, the environment.

/// Reads three sources that differ from run to run.
pub fn naughty() -> bool {
    let t0 = std::time::Instant::now();
    let worker = std::thread::spawn(|| 1 + 1);
    let home = std::env::var("HOME");
    t0.elapsed().as_nanos() > 0 && worker.join().is_ok() && home.is_ok()
}
