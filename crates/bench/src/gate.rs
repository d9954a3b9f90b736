//! What the CI gate binaries (`crash`, `alertsmoke`, `subsmoke`,
//! `clustersmoke`) share besides their flag parser ([`obs::flags`]): one
//! check-and-artifact path ([`Gate`]) and one child process ([`Proc`]).
//!
//! A gate's run function takes `&mut Gate` and records each named check
//! and each summary field where it measures them; [`run`] turns the
//! result into `summary.json` (`pass`, `failures`, the fields), the
//! gate's artifacts under `--out`, a PASS/FAIL line and the exit code.

use obs::json::Json;
use segdiff_server::loadgen::fetch;
use std::ffi::OsStr;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// One gate run: named checks, summary fields and artifacts.
#[derive(Debug)]
pub struct Gate {
    name: &'static str,
    failures: Vec<String>,
    fields: Vec<(&'static str, Json)>,
    artifacts: Vec<(&'static str, Vec<u8>)>,
}

impl Gate {
    /// An empty gate; `name` prefixes every line it prints.
    pub(crate) fn new(name: &'static str) -> Gate {
        Gate {
            name,
            failures: Vec::new(),
            fields: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Records the check `what`; a failed one lands in `failures` with
    /// `detail`. Returns `ok`.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl fmt::Display) -> bool {
        if ok {
            eprintln!("{}: ok: {what}", self.name);
        } else {
            let failure = format!("{what}: {detail}");
            eprintln!("{}: FAIL: {failure}", self.name);
            self.failures.push(failure);
        }
        ok
    }

    /// Adds the summary field `key`.
    pub fn field(&mut self, key: &'static str, value: impl Into<Json>) {
        self.fields.push((key, value.into()));
    }

    /// Adds the file `name` to what [`Gate::finish`] writes under `--out`.
    pub fn artifact(&mut self, name: &'static str, bytes: impl Into<Vec<u8>>) {
        self.artifacts.push((name, bytes.into()));
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// `{"pass":…,"failures":[…], …fields}`.
    pub(crate) fn summary(&self) -> Json {
        let failures = self.failures.iter().map(|f| Json::from(f.as_str()));
        let mut fields = vec![
            ("pass", Json::Bool(self.passed())),
            ("failures", Json::Array(failures.collect())),
        ];
        fields.extend(self.fields.iter().cloned());
        Json::obj(fields)
    }

    /// Writes `summary.json` and the artifacts under `out`, prints the
    /// summary and PASS/FAIL, and returns the exit code: 0 pass, 1 fail.
    pub fn finish(&self, out: Option<&Path>) -> i32 {
        let summary = self.summary();
        if let Some(dir) = out {
            if let Err(e) = self.write(dir, &summary) {
                eprintln!("{}: cannot write {}: {e}", self.name, dir.display());
                return 1;
            }
            eprintln!("{}: artifacts in {}", self.name, dir.display());
        }
        println!("{summary}");
        if self.passed() {
            eprintln!("{}: PASS", self.name);
            0
        } else {
            eprintln!("{}: FAIL ({} failed)", self.name, self.failures.len());
            1
        }
    }

    fn write(&self, dir: &Path, summary: &Json) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("summary.json"), summary.to_string())?;
        for (name, bytes) in &self.artifacts {
            std::fs::write(dir.join(name), bytes)?;
        }
        Ok(())
    }
}

/// Runs one gate binary's `body` and exits with its verdict. An `Err`
/// (nothing more could be measured) is one more failed check.
pub fn run(
    name: &'static str,
    out: Option<PathBuf>,
    body: impl FnOnce(&mut Gate) -> Result<(), String>,
) -> ! {
    let mut gate = Gate::new(name);
    if let Err(e) = body(&mut gate) {
        gate.check("run completed", false, e);
    }
    std::process::exit(gate.finish(out.as_deref()))
}

/// A child process with stdout and stderr in a log file, SIGKILLed on
/// drop so a failed gate never leaves one behind.
#[derive(Debug)]
pub struct Proc {
    /// The log file's stem (`shard-0` for `shard-0.log`).
    pub(crate) name: String,
    /// The `host:port` [`Proc::serve`] read from the banner.
    pub(crate) host: String,
    child: Child,
    log: PathBuf,
}

impl Proc {
    /// Spawns `program args` with stdout and stderr into `log`.
    pub fn spawn(
        program: &Path,
        args: impl IntoIterator<Item = impl AsRef<OsStr>>,
        log: &Path,
    ) -> Result<Proc, String> {
        let out =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out
            .try_clone()
            .map_err(|e| format!("clone log handle: {e}"))?;
        let name = log
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {name} ({}): {e}", program.display()))?;
        Ok(Proc {
            name,
            host: String::new(),
            child,
            log: log.to_path_buf(),
        })
    }

    /// Spawns a server, reads its address from its `listening on
    /// http://…` banner and waits until `/healthz` answers 200.
    pub(crate) fn serve(
        program: &Path,
        args: impl IntoIterator<Item = impl AsRef<OsStr>>,
        log: &Path,
    ) -> Result<Proc, String> {
        let mut proc = Proc::spawn(program, args, log)?;
        proc.host = proc.await_banner(Duration::from_secs(30))?;
        let what = format!("{} healthy at {}", proc.name, proc.host);
        await_until(Duration::from_secs(30), &what, || {
            matches!(fetch(&proc.host, "GET", "/healthz", None), Ok((200, _))).then_some(())
        })?;
        Ok(proc)
    }

    /// The `host:port` of the child's banner; an exit before it is an
    /// error carrying the log.
    fn await_banner(&mut self, deadline: Duration) -> Result<String, String> {
        let what = format!("{}'s listening banner", self.name);
        await_until(deadline, &what, || {
            let log = std::fs::read_to_string(&self.log).unwrap_or_default();
            let banner = log
                .lines()
                .find_map(|l| l.split_once("listening on http://"));
            if let Some((_, rest)) = banner {
                return Some(Ok(rest.split_whitespace().next().unwrap_or("").to_string()));
            }
            let status = self.child.try_wait().ok().flatten()?;
            Some(Err(format!(
                "{} exited ({status}) before listening:\n{log}",
                self.name
            )))
        })?
    }

    /// The exit status, if the child has exited.
    pub fn try_wait(&mut self) -> Result<Option<ExitStatus>, String> {
        self.child
            .try_wait()
            .map_err(|e| format!("wait for {}: {e}", self.name))
    }

    /// SIGKILLs the child and reaps it.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Polls `f` every 50 ms until it yields, or fails after `deadline`.
pub(crate) fn await_until<T>(
    deadline: Duration,
    what: &str,
    mut f: impl FnMut() -> Option<T>,
) -> Result<T, String> {
    let t0 = Instant::now();
    loop {
        if let Some(v) = f() {
            return Ok(v);
        }
        if t0.elapsed() > deadline {
            return Err(format!("timed out after {deadline:?} waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::scratch_dir;

    #[test]
    fn a_failed_check_fails_the_summary_and_the_exit_code() {
        let out = scratch_dir("gate-finish");
        std::fs::remove_dir_all(&out).ok();
        let mut gate = Gate::new("g");
        assert!(gate.check("fine", true, "unused"));
        gate.field("n", 3u64);
        gate.artifact("log.txt", "hello");
        assert_eq!(gate.finish(Some(&out)), 0);
        assert!(!gate.check("answers match", false, "3 bytes vs 4"));
        assert_eq!(gate.finish(Some(&out)), 1);
        let summary = std::fs::read_to_string(out.join("summary.json")).expect("summary");
        assert_eq!(
            summary,
            r#"{"pass":false,"failures":["answers match: 3 bytes vs 4"],"n":3}"#
        );
        assert_eq!(
            std::fs::read_to_string(out.join("log.txt")).unwrap(),
            "hello"
        );
        std::fs::remove_dir_all(&out).ok();
    }

    #[cfg(unix)]
    #[test]
    fn proc_reads_its_banner_and_dies_on_drop() {
        let dir = scratch_dir("gate-proc");
        std::fs::create_dir_all(&dir).unwrap();
        let script = "echo listening on http://127.0.0.1:1 '(test)'; exec sleep 30";
        let mut proc =
            Proc::spawn(Path::new("sh"), ["-c", script], &dir.join("sh.log")).expect("spawn sh");
        assert_eq!(proc.name, "sh");
        let host = proc.await_banner(Duration::from_secs(10)).expect("banner");
        assert_eq!(host, "127.0.0.1:1");
        let pid = proc.child.id().to_string();
        drop(proc);
        let alive = Command::new("kill")
            .args(["-0", &pid])
            .stderr(Stdio::null())
            .status();
        assert!(
            !alive.expect("run kill").success(),
            "pid {pid} outlived its Proc"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
