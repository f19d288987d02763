//! The traced benchmark binary (`--features trace`): the per-layer split.

fn main() -> std::process::ExitCode {
    perfbench::main()
}
