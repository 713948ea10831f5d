//! Property tests over random operation sequences: whatever order installs,
//! opens, stops, uninstalls and screen toggles arrive in, the device's
//! internal invariants must hold.

use proptest::prelude::*;
use racket_device::Device;
use racket_types::{AndroidId, ApkHash, AppId, PermissionProfile, SimTime};

#[derive(Debug, Clone)]
enum Op {
    Install(u8),
    Uninstall(u8),
    Open(u8),
    Stop(u8),
    Screen(bool),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..12).prop_map(Op::Install),
        (0u8..12).prop_map(Op::Uninstall),
        (0u8..12).prop_map(Op::Open),
        (0u8..12).prop_map(Op::Stop),
        any::<bool>().prop_map(Op::Screen),
    ]
}

proptest! {
    #[test]
    fn random_op_sequences_keep_invariants(ops in proptest::collection::vec(arb_op(), 0..200)) {
        let mut device = Device::new(Some(AndroidId(1)));
        let packages = |d: &Device| -> Vec<(AppId, SimTime)> {
            d.installed_apps().map(|a| (a.app, a.install_time)).collect()
        };
        let mut stopped = Vec::new();
        let mut t = 0u64;
        for op in &ops {
            t += 10;
            let now = SimTime::from_secs(t);
            let (stamp_before, packages_before) = (device.pkg_stamp(), packages(&device));
            match op {
                Op::Install(a) => device.install_app(
                    AppId(u32::from(*a)),
                    now,
                    PermissionProfile::default(),
                    ApkHash([*a; 16]),
                ),
                Op::Uninstall(a) => {
                    device.uninstall_app(AppId(u32::from(*a)));
                }
                Op::Open(a) => {
                    device.open_app(AppId(u32::from(*a)));
                }
                Op::Stop(a) => {
                    device.stop_app(AppId(u32::from(*a)));
                }
                Op::Screen(on) => device.set_screen(*on),
            }

            // Invariants after every operation:
            // 1. foreground app, if any, is installed and not stopped.
            if let Some(fg) = device.foreground_app() {
                let info = device.installed_app(fg).expect("foreground app installed");
                prop_assert!(!info.stopped, "foreground app cannot be stopped");
                prop_assert!(device.screen_on(), "foreground implies screen on");
            }
            // 2. stopped apps are a subset of installed apps.
            device.stopped_apps_into(&mut stopped);
            for &app in &stopped {
                prop_assert!(device.is_installed(app));
            }
            // 3. the package stamp moves exactly when the (app, install
            // time) set the collector's delta scan reads changes.
            let stamp_moved = device.pkg_stamp() != stamp_before;
            prop_assert!(device.pkg_stamp() >= stamp_before, "stamp went backwards");
            prop_assert_eq!(stamp_moved, packages(&device) != packages_before, "{:?}", op);
        }
    }
}
