//! Plain IEEE 802.11 multicast/broadcast: "the multicast sender simply
//! listens to the channel and then transmits its data frame when the
//! channel becomes free for a period of time. There is no MAC-level
//! recovery on multicast frame."

use super::{Env, Flow};
use rmm_sim::{Dest, Slot};

/// Plain 802.11 multicast sender. It keeps no state: the message is
/// served when its one data frame leaves the air.
#[derive(Debug, Default)]
pub struct PlainFsm;

impl PlainFsm {
    /// New sender.
    pub fn new() -> Self {
        PlainFsm
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if env.req.receivers.is_empty() {
            return Flow::Complete;
        }
        let t = env.timing();
        env.send_data(Dest::group(env.req.receivers.clone()), 0);
        Flow::Await(env.now() + Slot::from(t.data_slots))
    }
}
