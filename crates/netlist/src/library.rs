//! Cell library: kinds, terminals, timing arcs and the ECL demo library.
//!
//! A [`CellKind`] carries everything the router and the timing analyzer
//! need about a cell type:
//!
//! * physical width in wiring *pitches* and per-pin x offsets,
//! * the delay-model parameters of the paper's Eq. (1):
//!   intrinsic arc delays `T0(t_i, t_o)`, per-terminal fan-in capacitance
//!   `F_in(t)` (fF), and per-output factors `T_f` (ps/fF of fan-in load)
//!   and `T_d` (ps/fF of wiring capacitance),
//! * the *sequential* flag (flip-flops cut combinational paths), and
//! * the *feed slot* count — bipolar cells normally have **no** space for
//!   feedthrough wires (§4.3), so only dedicated feed cells (and spacer
//!   gaps) contribute feedthrough positions.

use crate::ids::KindId;

/// Direction of a cell terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermDir {
    /// Signal flows into the cell.
    Input,
    /// Signal flows out of the cell.
    Output,
}

/// Which channel(s) a terminal's physical position can be tapped from.
///
/// Standard-cell terminals are usually reachable from both the channel
/// above and the channel below the cell row; restricted pins model blocked
/// access. The router turns each reachable side into a candidate
/// *terminal-position* vertex of the routing graph (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessSide {
    /// Only the channel above the row.
    Top,
    /// Only the channel below the row.
    Bottom,
    /// Either channel (two candidate positions).
    #[default]
    Both,
}

/// Specification of one terminal of a [`CellKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct TermSpec {
    /// Pin name, unique within the kind (e.g. `"A"`, `"Y"`).
    pub name: String,
    /// Signal direction.
    pub dir: TermDir,
    /// Channel access for the physical pin.
    pub access: AccessSide,
    /// Fan-in capacitance `F_in(t)` in fF presented to the driving net.
    pub fanin_ff: f64,
    /// Horizontal pin offset from the cell origin, in pitches.
    pub offset_pitches: u32,
}

/// A timing arc `t_i -> t_o` with intrinsic delay `T0(t_i, t_o)` in ps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcSpec {
    /// Index of the input terminal within [`CellKind::terms`].
    pub from: usize,
    /// Index of the output terminal within [`CellKind::terms`].
    pub to: usize,
    /// Intrinsic delay `T0` in ps.
    pub intrinsic_ps: f64,
}

/// A cell type in the library.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKind {
    name: String,
    width_pitches: u32,
    terms: Vec<TermSpec>,
    arcs: Vec<ArcSpec>,
    fanin_delay_ps_per_ff: f64,
    load_delay_ps_per_ff: f64,
    sequential: bool,
    feed_slots: u32,
}

impl CellKind {
    /// Starts building a kind with the given name and width in pitches.
    pub fn builder(name: impl Into<String>, width_pitches: u32) -> CellKindBuilder {
        CellKindBuilder::new(name, width_pitches)
    }

    /// Kind name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell width in wiring pitches.
    pub fn width_pitches(&self) -> u32 {
        self.width_pitches
    }

    /// Terminal specifications, indexed by pin index.
    pub fn terms(&self) -> &[TermSpec] {
        &self.terms
    }

    /// Timing arcs.
    pub fn arcs(&self) -> &[ArcSpec] {
        &self.arcs
    }

    /// Fan-in delay factor `T_f` in ps per fF of fan-out input load.
    pub fn fanin_delay_ps_per_ff(&self) -> f64 {
        self.fanin_delay_ps_per_ff
    }

    /// Unit wiring-capacitance delay `T_d` in ps per fF.
    pub fn load_delay_ps_per_ff(&self) -> f64 {
        self.load_delay_ps_per_ff
    }

    /// Whether this kind is sequential (cuts combinational propagation).
    pub fn is_sequential(&self) -> bool {
        self.sequential
    }

    /// Number of 1-pitch feedthrough slots this kind contributes.
    ///
    /// Zero for ordinary bipolar cells; positive for feed cells.
    pub fn feed_slots(&self) -> u32 {
        self.feed_slots
    }

    /// Whether this is a dedicated feed cell.
    pub fn is_feed(&self) -> bool {
        self.feed_slots > 0
    }

    /// Looks up a pin index by name.
    pub fn pin(&self, name: &str) -> Option<usize> {
        self.terms.iter().position(|t| t.name == name)
    }

    /// Iterates over indices of output terminals.
    pub fn output_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.dir == TermDir::Output)
            .map(|(i, _)| i)
    }

    /// Iterates over indices of input terminals.
    pub fn input_pins(&self) -> impl Iterator<Item = usize> + '_ {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.dir == TermDir::Input)
            .map(|(i, _)| i)
    }
}

/// Builder for [`CellKind`] (Rust API guideline C-BUILDER).
///
/// # Example
///
/// ```
/// use bgr_netlist::{CellKind, TermDir};
///
/// let nor2 = CellKind::builder("NOR2", 4)
///     .input("A", 6.0, 0)
///     .input("B", 6.0, 1)
///     .output("Y", 3)
///     .arc("A", "Y", 95.0)
///     .arc("B", "Y", 105.0)
///     .fanin_delay(3.0)
///     .load_delay(0.55)
///     .build();
/// assert_eq!(nor2.terms().len(), 3);
/// assert_eq!(nor2.arcs().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CellKindBuilder {
    kind: CellKind,
    pending_arcs: Vec<(String, String, f64)>,
}

impl CellKindBuilder {
    fn new(name: impl Into<String>, width_pitches: u32) -> Self {
        Self {
            kind: CellKind {
                name: name.into(),
                width_pitches,
                terms: Vec::new(),
                arcs: Vec::new(),
                fanin_delay_ps_per_ff: 0.0,
                load_delay_ps_per_ff: 0.0,
                sequential: false,
                feed_slots: 0,
            },
            pending_arcs: Vec::new(),
        }
    }

    /// Adds an input pin with fan-in capacitance (fF) and x offset.
    pub fn input(mut self, name: &str, fanin_ff: f64, offset_pitches: u32) -> Self {
        self.kind.terms.push(TermSpec {
            name: name.to_owned(),
            dir: TermDir::Input,
            access: AccessSide::Both,
            fanin_ff,
            offset_pitches,
        });
        self
    }

    /// Adds an output pin at the given x offset.
    pub fn output(mut self, name: &str, offset_pitches: u32) -> Self {
        self.kind.terms.push(TermSpec {
            name: name.to_owned(),
            dir: TermDir::Output,
            access: AccessSide::Both,
            fanin_ff: 0.0,
            offset_pitches,
        });
        self
    }

    /// Restricts the channel access of the most recently added pin.
    ///
    /// # Panics
    ///
    /// Panics if no pin has been added yet.
    pub fn access(mut self, access: AccessSide) -> Self {
        self.kind
            .terms
            .last_mut()
            .expect("access() requires a preceding pin")
            .access = access;
        self
    }

    /// Adds a timing arc `from -> to` with intrinsic delay `T0` in ps.
    pub fn arc(mut self, from: &str, to: &str, intrinsic_ps: f64) -> Self {
        self.pending_arcs
            .push((from.to_owned(), to.to_owned(), intrinsic_ps));
        self
    }

    /// Sets the fan-in delay factor `T_f` (ps/fF).
    pub fn fanin_delay(mut self, ps_per_ff: f64) -> Self {
        self.kind.fanin_delay_ps_per_ff = ps_per_ff;
        self
    }

    /// Sets the unit wiring-capacitance delay `T_d` (ps/fF).
    pub fn load_delay(mut self, ps_per_ff: f64) -> Self {
        self.kind.load_delay_ps_per_ff = ps_per_ff;
        self
    }

    /// Marks the kind as sequential (flip-flop / latch).
    pub fn sequential(mut self) -> Self {
        self.kind.sequential = true;
        self
    }

    /// Declares the kind a feed cell contributing `slots` feedthrough
    /// positions.
    pub fn feed(mut self, slots: u32) -> Self {
        self.kind.feed_slots = slots;
        self
    }

    /// Finishes the kind.
    ///
    /// # Panics
    ///
    /// Panics if an arc references an unknown pin name or connects pins of
    /// the wrong direction; library kinds are static data, so this is a
    /// programming error rather than a recoverable condition. Kinds read
    /// from untrusted text go through [`CellKindBuilder::try_build`].
    pub fn build(self) -> CellKind {
        self.try_build().unwrap_or_else(|(_, msg)| panic!("{msg}"))
    }

    /// Finishes the kind, or returns the insertion index of the first
    /// arc whose pins are unknown or wrongly directed, with a message.
    pub fn try_build(mut self) -> Result<CellKind, (usize, String)> {
        for (i, (from, to, t0)) in std::mem::take(&mut self.pending_arcs)
            .into_iter()
            .enumerate()
        {
            let name = &self.kind.name;
            let bad = |msg: String| (i, format!("kind {name}: {msg}"));
            let fi = self
                .kind
                .pin(&from)
                .ok_or_else(|| bad(format!("unknown arc source {from}")))?;
            let ti = self
                .kind
                .pin(&to)
                .ok_or_else(|| bad(format!("unknown arc target {to}")))?;
            if self.kind.terms[fi].dir != TermDir::Input {
                return Err(bad(format!("arc source {from} is not an input pin")));
            }
            if self.kind.terms[ti].dir != TermDir::Output {
                return Err(bad(format!("arc target {to} is not an output pin")));
            }
            self.kind.arcs.push(ArcSpec {
                from: fi,
                to: ti,
                intrinsic_ps: t0,
            });
        }
        Ok(self.kind)
    }
}

/// An immutable collection of [`CellKind`]s.
#[derive(Debug, Clone, Default)]
pub struct CellLibrary {
    kinds: Vec<CellKind>,
}

impl CellLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kind, returning its id.
    pub fn add(&mut self, kind: CellKind) -> KindId {
        let id = KindId::new(self.kinds.len());
        self.kinds.push(kind);
        id
    }

    /// All kinds in insertion order.
    pub fn kinds(&self) -> &[CellKind] {
        &self.kinds
    }

    /// Looks up a kind by id.
    pub fn kind(&self, id: KindId) -> &CellKind {
        &self.kinds[id.index()]
    }

    /// Checks whether the id is valid for this library.
    pub fn contains(&self, id: KindId) -> bool {
        id.index() < self.kinds.len()
    }

    /// Finds a kind id by name.
    pub fn kind_by_name(&self, name: &str) -> Option<KindId> {
        self.kinds
            .iter()
            .position(|k| k.name() == name)
            .map(KindId::new)
    }

    /// A realistic ECL demo library.
    ///
    /// Delay numbers follow early-1990s Gbit/s-class bipolar standard
    /// cells: intrinsic gate delays of 60–140 ps, input capacitances of a
    /// few fF, and load sensitivities of a fraction of a ps per fF. The
    /// `FEED1`/`FEED2` kinds are pure feed cells; `CLKDRV` is a high-drive
    /// clock buffer intended to drive multi-pitch nets.
    pub fn ecl() -> Self {
        let mut lib = Self::new();
        lib.add(
            CellKind::builder("INV", 3)
                .input("A", 5.0, 0)
                .output("Y", 2)
                .arc("A", "Y", 60.0)
                .fanin_delay(2.5)
                .load_delay(0.45)
                .build(),
        );
        lib.add(
            CellKind::builder("BUF", 3)
                .input("A", 5.0, 0)
                .output("Y", 2)
                .arc("A", "Y", 70.0)
                .fanin_delay(2.0)
                .load_delay(0.40)
                .build(),
        );
        lib.add(
            CellKind::builder("NOR2", 4)
                .input("A", 6.0, 0)
                .input("B", 6.0, 1)
                .output("Y", 3)
                .arc("A", "Y", 95.0)
                .arc("B", "Y", 105.0)
                .fanin_delay(3.0)
                .load_delay(0.55)
                .build(),
        );
        lib.add(
            CellKind::builder("OR2", 4)
                .input("A", 6.0, 0)
                .input("B", 6.0, 1)
                .output("Y", 3)
                .arc("A", "Y", 90.0)
                .arc("B", "Y", 100.0)
                .fanin_delay(3.0)
                .load_delay(0.55)
                .build(),
        );
        lib.add(
            CellKind::builder("AND2", 4)
                .input("A", 6.5, 0)
                .input("B", 6.5, 1)
                .output("Y", 3)
                .arc("A", "Y", 100.0)
                .arc("B", "Y", 110.0)
                .fanin_delay(3.2)
                .load_delay(0.60)
                .build(),
        );
        lib.add(
            CellKind::builder("NOR3", 5)
                .input("A", 6.0, 0)
                .input("B", 6.0, 1)
                .input("C", 6.0, 2)
                .output("Y", 4)
                .arc("A", "Y", 110.0)
                .arc("B", "Y", 120.0)
                .arc("C", "Y", 130.0)
                .fanin_delay(3.4)
                .load_delay(0.65)
                .build(),
        );
        lib.add(
            CellKind::builder("XOR2", 6)
                .input("A", 8.0, 0)
                .input("B", 8.0, 2)
                .output("Y", 5)
                .arc("A", "Y", 130.0)
                .arc("B", "Y", 140.0)
                .fanin_delay(3.8)
                .load_delay(0.70)
                .build(),
        );
        lib.add(
            CellKind::builder("MUX2", 6)
                .input("A", 7.0, 0)
                .input("B", 7.0, 1)
                .input("S", 8.5, 3)
                .output("Y", 5)
                .arc("A", "Y", 115.0)
                .arc("B", "Y", 115.0)
                .arc("S", "Y", 135.0)
                .fanin_delay(3.5)
                .load_delay(0.65)
                .build(),
        );
        lib.add(
            CellKind::builder("DFF", 8)
                .input("D", 7.0, 0)
                .input("CK", 9.0, 3)
                .output("Q", 7)
                .arc("CK", "Q", 150.0)
                .fanin_delay(2.8)
                .load_delay(0.50)
                .sequential()
                .build(),
        );
        lib.add(
            CellKind::builder("CLKDRV", 10)
                .input("A", 12.0, 0)
                .output("Y", 9)
                .arc("A", "Y", 120.0)
                .fanin_delay(0.8)
                .load_delay(0.12)
                .build(),
        );
        // Differential buffer: true/complement inputs and outputs sit one
        // pitch apart, so a differential pair's two nets see identical
        // relative geometry — the §4.1 homogeneity precondition.
        lib.add(
            CellKind::builder("DBUF", 5)
                .input("A", 6.0, 0)
                .input("AN", 6.0, 1)
                .output("Y", 3)
                .output("YN", 4)
                .arc("A", "Y", 100.0)
                .arc("AN", "YN", 100.0)
                .fanin_delay(3.0)
                .load_delay(0.55)
                .build(),
        );
        lib.add(CellKind::builder("FEED1", 1).feed(1).build());
        lib.add(CellKind::builder("FEED2", 2).feed(2).build());
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_arcs_by_name() {
        let kind = CellKind::builder("X", 4)
            .input("A", 5.0, 0)
            .output("Y", 3)
            .arc("A", "Y", 50.0)
            .build();
        assert_eq!(kind.arcs()[0].from, 0);
        assert_eq!(kind.arcs()[0].to, 1);
        assert_eq!(kind.arcs()[0].intrinsic_ps, 50.0);
    }

    #[test]
    #[should_panic(expected = "unknown arc source")]
    fn builder_panics_on_unknown_arc_pin() {
        let _ = CellKind::builder("X", 4)
            .output("Y", 3)
            .arc("A", "Y", 50.0)
            .build();
    }

    #[test]
    fn try_build_names_the_bad_arc() {
        let builder = CellKind::builder("X", 4)
            .input("A", 5.0, 0)
            .output("Y", 3)
            .arc("A", "Y", 50.0);
        let (i, msg) = builder.clone().arc("Y", "A", 1.0).try_build().unwrap_err();
        assert_eq!(i, 1);
        assert!(msg.contains("not an input pin"), "{msg}");
        let (i, msg) = builder.clone().arc("A", "Z", 1.0).try_build().unwrap_err();
        assert_eq!(i, 1);
        assert!(msg.contains("unknown arc target Z"), "{msg}");
        let (i, msg) = builder.clone().arc("A", "A", 1.0).try_build().unwrap_err();
        assert_eq!(i, 1);
        assert!(msg.contains("not an output pin"), "{msg}");
        assert_eq!(builder.try_build().unwrap().arcs().len(), 1);
    }

    #[test]
    fn pin_lookup_by_name() {
        let lib = CellLibrary::ecl();
        let nor2 = lib.kind(lib.kind_by_name("NOR2").unwrap());
        assert_eq!(nor2.pin("B"), Some(1));
        assert_eq!(nor2.pin("Z"), None);
    }

    #[test]
    fn ecl_library_shape() {
        let lib = CellLibrary::ecl();
        assert!(lib.kind_by_name("DFF").is_some());
        let dff = lib.kind(lib.kind_by_name("DFF").unwrap());
        assert!(dff.is_sequential());
        // The only DFF arc is clock-to-Q; D does not propagate
        // combinationally.
        assert_eq!(dff.arcs().len(), 1);
        assert_eq!(dff.terms()[dff.arcs()[0].from].name, "CK");

        let feed = lib.kind(lib.kind_by_name("FEED1").unwrap());
        assert!(feed.is_feed());
        assert_eq!(feed.terms().len(), 0);
    }

    #[test]
    fn input_output_pin_iterators() {
        let lib = CellLibrary::ecl();
        let mux = lib.kind(lib.kind_by_name("MUX2").unwrap());
        assert_eq!(mux.input_pins().count(), 3);
        assert_eq!(mux.output_pins().count(), 1);
    }

    #[test]
    fn access_side_modifier() {
        let kind = CellKind::builder("X", 2)
            .input("A", 1.0, 0)
            .access(AccessSide::Top)
            .output("Y", 1)
            .build();
        assert_eq!(kind.terms()[0].access, AccessSide::Top);
        assert_eq!(kind.terms()[1].access, AccessSide::Both);
    }

    #[test]
    fn library_contains_and_lookup() {
        let lib = CellLibrary::ecl();
        let id = lib.kind_by_name("INV").unwrap();
        assert!(lib.contains(id));
        assert!(!lib.contains(KindId::new(999)));
        assert_eq!(lib.kind(id).name(), "INV");
    }
}
