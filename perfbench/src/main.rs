//! The plain benchmark binary, built without the `trace` feature: the
//! end-to-end measurement and the untraced replay.

fn main() -> std::process::ExitCode {
    perfbench::main()
}
