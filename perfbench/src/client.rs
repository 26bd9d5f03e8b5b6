//! The server process and the one protocol connection the benchmark drives.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// A running `ontodq-server --listen` child.
pub struct Server {
    child: Child,
    port: u16,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Start the server with one query worker, register the scaled context
    /// of `scale` hundred measurements, and return once it listens.
    pub fn start(binary: &Path, scale: usize, data_dir: Option<&Path>) -> io::Result<Self> {
        let port = free_port()?;
        let mut command = Command::new(binary);
        command
            .args(["--listen", &format!("127.0.0.1:{port}")])
            .args(["--workers", "1", "--scale", &scale.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir);
        }
        let mut child = command.spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        // The server logs `listening on` after registration (or recovery)
        // finished and the listener is bound.
        let mut log = String::new();
        loop {
            let mut line = String::new();
            if stderr.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server exited before listening:\n{log}"
                )));
            }
            if line.contains("listening on") {
                break;
            }
            log.push_str(&line);
        }
        // Keep draining so a chatty server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok(Self {
            child,
            port,
            stderr: Some(drain),
        })
    }

    /// Open a session: connect, read the greeting, switch to `scaled`.
    pub fn connect(&self) -> io::Result<Connection> {
        let stream = TcpStream::connect((Ipv4Addr::LOCALHOST, self.port))?;
        stream.set_nodelay(true)?;
        let mut connection = Connection {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        };
        let greeting = connection.read_line()?;
        if !greeting.starts_with("ok ") {
            return Err(io::Error::other(format!("bad greeting {greeting:?}")));
        }
        connection.send(b"!use scaled\n")?;
        let response = connection.read_response()?;
        if response.status != "ok context=scaled" {
            return Err(io::Error::other(format!(
                "!use scaled: {}",
                response.status
            )));
        }
        Ok(connection)
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// End the server and wait for it (and the stderr drain) to finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?
        .local_addr()?
        .port())
}

/// One response: its data lines and its `ok …`/`err: …` status line.
pub struct Response {
    pub data: Vec<String>,
    pub status: String,
}

impl Response {
    pub fn is_err(&self) -> bool {
        self.status.starts_with("err")
    }

    /// The value of `key=` in the status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.status
            .split_whitespace()
            .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
    }

    pub fn number(&self, key: &str) -> Option<u64> {
        self.field(key)?.parse().ok()
    }
}

pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    pub fn read_response(&mut self) -> io::Result<Response> {
        let mut data = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.starts_with("ok") || line.starts_with("err") {
                return Ok(Response { data, status: line });
            }
            data.push(line);
        }
    }

    /// Send one request line and read its response, timed from the first
    /// byte sent to the status line read.
    pub fn request(&mut self, line: &str) -> io::Result<(Response, f64)> {
        let start = Instant::now();
        self.send(line.as_bytes())?;
        let response = self.read_response()?;
        Ok((response, start.elapsed().as_secs_f64()))
    }

    /// End the session cleanly (the server fsyncs its WAL on `!quit`).
    pub fn quit(mut self) -> io::Result<()> {
        self.send(b"!quit\n")?;
        self.read_response().map(drop)
    }
}
