use clack::packets::{self, WorkloadOptions};
use clack::RouterHarness;

fn main() {
    let work = packets::workload(&WorkloadOptions { count: 128, ..Default::default() });
    for (name, report) in [
        ("modular", clack::build_clack_router(&clack::ip_router(), false).unwrap()),
        ("modular+flat", clack::build_clack_router(&clack::ip_router(), true).unwrap()),
        ("hand", clack::build_hand_router(false).unwrap()),
        ("hand+flat", clack::build_hand_router(true).unwrap()),
    ] {
        let mut h = RouterHarness::new(&report).unwrap();
        let m = h.measure(&work).unwrap();
        let c = m.raw;
        println!(
            "{name:14} cyc/pkt={:5} stall/pkt={:4} text={:6} calls={:6} ind={:4} instr={}",
            m.cycles_per_packet,
            m.ifetch_stalls_per_packet,
            m.text_size,
            c.calls,
            c.indirect_calls,
            c.instructions
        );
    }
    {
        let report = clack::build_clack_router(&clack::ip_router(), true).unwrap();
        let img = &report.image;
        println!("flat image: {} funcs", img.funcs.len());
        let entry =
            report.exports.iter().find(|(k, _)| k.ends_with(".router_step")).unwrap().1.clone();
        for f in img.funcs.iter() {
            if f.name == entry {
                let calls =
                    f.body.iter().filter(|i| matches!(i, cobj::RInstr::Call { .. })).count();
                println!(
                    "router_step fn: {} instrs, {} direct calls, {} bytes",
                    f.body.len(),
                    calls,
                    f.size
                );
            }
        }
        for f in img.funcs.iter().take(40) {
            println!("  fn {} ({} instrs)", f.name, f.body.len());
        }
    }
    for (name, opts) in
        [("click-generic", None), ("click-opt", Some(clack::click::ClickOpts::all()))]
    {
        let img = clack::click::build_click_router(&clack::ip_router(), opts).unwrap();
        let mut h = RouterHarness::from_image(img, Some("click_init"), "router_step").unwrap();
        let m = h.measure(&work).unwrap();
        let c = m.raw;
        println!(
            "{name:14} cyc/pkt={:5} stall/pkt={:4} text={:6} calls={:6} ind={:4} instr={}",
            m.cycles_per_packet,
            m.ifetch_stalls_per_packet,
            m.text_size,
            c.calls,
            c.indirect_calls,
            c.instructions
        );
    }
}
