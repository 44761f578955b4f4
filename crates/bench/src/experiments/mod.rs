//! One module per paper table/figure. Each exposes a `build` function
//! (a row of [`crate::experiment::REGISTRY`]) that fills the report the
//! registry created, plus the public sweep/measure helpers the
//! paper-claims tests consume. The `fast` flag shrinks grids for tests
//! and smoke runs without changing the mechanisms exercised.

pub mod ablations;
pub mod cap;
pub mod cluster;
pub mod ctrl;
pub mod extensions;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod mem;
pub mod plan;
pub mod scale;
pub mod sweep59;
pub mod table1;
