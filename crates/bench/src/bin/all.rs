//! Runs every table and figure binary in sequence; their printed
//! output is the paper reproduction's data (`ROADMAP.md` plans the
//! document that records it).

use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    for name in ["table1", "table2", "table3", "fig7", "fig8", "fig9"] {
        println!("================================================================");
        println!("==== {name}");
        println!("================================================================");
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} failed");
        println!();
    }
}
