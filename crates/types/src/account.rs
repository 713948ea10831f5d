//! Accounts registered on a device.
//!
//! §6.2 measures the number of Gmail accounts, the number of non-Gmail
//! accounts and the number of distinct *account types* (services) per
//! device: worker devices average 28.87 Gmail accounts (max 163) while
//! regular devices max out at 10; regular devices register ~6 distinct
//! services while worker devices concentrate on Gmail plus ASO-support
//! services such as `dualspace.daemon` and `freelancer`.

use crate::id::GoogleId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of a registered account within the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AccountId(pub u64);

impl AccountId {
    /// The raw numeric value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct-{}", self.0)
    }
}

/// The online service an account belongs to.
///
/// The variant set covers the services the paper names explicitly plus the
/// common social-network services that give regular devices their account
/// *type* diversity (Figure 5, center).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variants are service names
pub enum AccountService {
    /// Google/Gmail — required to post a Play Store review (§6.2).
    Gmail,
    WhatsApp,
    Facebook,
    Telegram,
    Instagram,
    Twitter,
    TikTok,
    Snapchat,
    Viber,
    Imo,
    Skype,
    LinkedIn,
    Outlook,
    Yahoo,
    Samsung,
    Xiaomi,
    Huawei,
    /// `dualspace.daemon` — app cloner that lets one device install the same
    /// app multiple times; indicative of ASO tooling (§6.2).
    DualSpace,
    /// Freelancing marketplace accounts used to find ASO jobs (§6.2).
    Freelancer,
    /// Mobile payment services (the paper's workers mention Easypaisa).
    Easypaisa,
    /// Any other service, keyed by an opaque tag.
    Other(u16),
}

impl AccountService {
    /// Whether the account can post Play Store reviews.
    pub fn is_gmail(self) -> bool {
        matches!(self, AccountService::Gmail)
    }

    /// The services a *regular* device plausibly registers, in rough order
    /// of popularity; used by the persona models.
    pub fn consumer_services() -> &'static [AccountService] {
        use AccountService::*;
        &[
            WhatsApp, Facebook, Instagram, Telegram, Twitter, TikTok, Snapchat, Viber, Imo, Skype,
            LinkedIn, Outlook, Yahoo, Samsung, Xiaomi, Huawei,
        ]
    }
}

impl fmt::Display for AccountService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountService::Gmail => write!(f, "com.google"),
            AccountService::WhatsApp => write!(f, "com.whatsapp"),
            AccountService::Facebook => write!(f, "com.facebook.auth.login"),
            AccountService::Telegram => write!(f, "org.telegram.messenger"),
            AccountService::Instagram => write!(f, "com.instagram.android"),
            AccountService::Twitter => write!(f, "com.twitter.android.auth.login"),
            AccountService::TikTok => write!(f, "com.zhiliaoapp.musically"),
            AccountService::Snapchat => write!(f, "com.snapchat.android"),
            AccountService::Viber => write!(f, "com.viber.voip"),
            AccountService::Imo => write!(f, "com.imo.android.imoim"),
            AccountService::Skype => write!(f, "com.skype.raider"),
            AccountService::LinkedIn => write!(f, "com.linkedin.android"),
            AccountService::Outlook => write!(f, "com.microsoft.office.outlook"),
            AccountService::Yahoo => write!(f, "com.yahoo.mobile.client.share.sync"),
            AccountService::Samsung => write!(f, "com.osp.app.signin"),
            AccountService::Xiaomi => write!(f, "com.xiaomi"),
            AccountService::Huawei => write!(f, "com.huawei.hwid"),
            AccountService::DualSpace => write!(f, "dualspace.daemon"),
            AccountService::Freelancer => write!(f, "com.freelancer.android.messenger"),
            AccountService::Easypaisa => write!(f, "pk.com.telenor.phoenix"),
            AccountService::Other(tag) => write!(f, "other.service.{tag}"),
        }
    }
}

/// One account registered on a device, as reported by a slow snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegisteredAccount {
    /// Simulation-unique account identity.
    pub id: AccountId,
    /// The service the account belongs to.
    pub service: AccountService,
    /// The Google ID behind the account, present only for Gmail accounts
    /// once the Google-ID crawler has resolved the address (§5).
    pub google_id: Option<GoogleId>,
}

impl RegisteredAccount {
    /// A Gmail account whose Google ID is already resolved.
    pub fn gmail(id: AccountId, google_id: GoogleId) -> Self {
        RegisteredAccount {
            id,
            service: AccountService::Gmail,
            google_id: Some(google_id),
        }
    }

    /// A non-Gmail account on the given service.
    pub fn non_gmail(id: AccountId, service: AccountService) -> Self {
        debug_assert!(!service.is_gmail());
        RegisteredAccount {
            id,
            service,
            google_id: None,
        }
    }
}

#[cfg(test)]
impl AccountService {
    /// Whether the service is ASO-support tooling rather than a consumer
    /// service (DualSpace for multi-install, Freelancer for job sourcing).
    pub(crate) fn is_aso_tooling(self) -> bool {
        matches!(self, AccountService::DualSpace | AccountService::Freelancer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmail_detection() {
        assert!(AccountService::Gmail.is_gmail());
        assert!(!AccountService::WhatsApp.is_gmail());
        assert!(!AccountService::Other(3).is_gmail());
    }

    #[test]
    fn aso_tooling_detection() {
        assert!(AccountService::DualSpace.is_aso_tooling());
        assert!(AccountService::Freelancer.is_aso_tooling());
        assert!(!AccountService::Gmail.is_aso_tooling());
        assert!(!AccountService::Facebook.is_aso_tooling());
    }

    #[test]
    fn consumer_services_exclude_gmail_and_tooling() {
        for s in AccountService::consumer_services() {
            assert!(!s.is_gmail());
            assert!(!s.is_aso_tooling());
        }
        assert!(AccountService::consumer_services().len() >= 15);
    }

    #[test]
    fn display_names_are_android_account_types() {
        assert_eq!(AccountService::Gmail.to_string(), "com.google");
        assert_eq!(AccountService::DualSpace.to_string(), "dualspace.daemon");
        assert_eq!(AccountService::Other(7).to_string(), "other.service.7");
    }

    #[test]
    fn constructors() {
        let g = RegisteredAccount::gmail(AccountId(1), GoogleId(10));
        assert!(g.service.is_gmail());
        assert_eq!(g.google_id, Some(GoogleId(10)));

        let f = RegisteredAccount::non_gmail(AccountId(2), AccountService::Facebook);
        assert!(f.google_id.is_none());
    }
}
