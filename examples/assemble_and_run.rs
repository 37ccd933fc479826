//! Assembler round-trip: write a kernel as text, assemble it with
//! `iwc_isa::parse_program`, disassemble it back with `to_asm`, and run it
//! on the simulated GPU.
//!
//! Run with: `cargo run --release --example assemble_and_run`

use intra_warp_compaction::isa::{parse_program, to_asm};
use intra_warp_compaction::sim::{simulate, GpuConfig, Launch, MemoryImage};

const SOURCE: &str = r"
; Collatz step counter: out[gid] = steps for gid+1 to reach 1 (capped).
kernel collatz simd16
    add r6:ud, r1:ud, 1:ud        ; n = gid + 1
    mov r8:ud, 0:ud               ; steps = 0
    do
        ; if n is even: n /= 2, else n = 3n + 1
        and r10:ud, r6:ud, 1:ud
        cmp.eq.f0 r10:ud, 0:ud
        (+f0) if
            shr r6:ud, r6:ud, 1:ud
        else
            mul r6:ud, r6:ud, 3:ud
            add r6:ud, r6:ud, 1:ud
        endif
        add r8:ud, r8:ud, 1:ud
        ; loop while n > 1 and steps < 64
        cmp.gt.f0 r6:ud, 1:ud
        cmp.lt.f1 r8:ud, 64:ud
        (-f1) break
    (+f0) while
    ; out[gid] = steps
    shl r12:ud, r1:ud, 2:ud
    add r12:ud, r12:ud, r3.0:ud
    store.global r12:ud, r8:ud
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(SOURCE)?;
    println!("assembled {} instructions; disassembly:\n", program.len());
    print!("{}", to_asm(&program));

    // The Collatz loop is maximally trip-divergent: neighbors take wildly
    // different step counts.
    let mut img = MemoryImage::new(1 << 16);
    let out = img.alloc(64 * 4);
    let launch = Launch::new(program, 64, 64).with_args(&[out]);
    let result = simulate(&GpuConfig::paper_default(), &launch, &mut img)?;
    println!("\n{result}");

    let steps: Vec<u32> = img.read_u32_slice(out, 16);
    println!("steps(1..=16) = {steps:?}");
    // Spot-check well-known Collatz trajectories (the do/while runs the
    // body at least once, so n=1 walks 1 -> 4 -> 2 -> 1 = 3 steps).
    assert_eq!(steps[0], 3, "1 -> 4 -> 2 -> 1 under do/while");
    assert_eq!(steps[5], 8, "6 -> 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 -> 1");
    assert_eq!(steps[6], 16, "7 takes 16 steps");
    println!(
        "divergent loop: SIMD efficiency {:.1}%, SCC would save {:.1}% of EU cycles",
        100.0 * result.simd_efficiency(),
        100.0
            * result
                .compute_tally()
                .reduction_vs_ivb(intra_warp_compaction::compaction::EngineId::SCC)
    );
    Ok(())
}
