// Package contracts is the public API of the temporal contract
// database — a Go implementation of "Querying contract databases based
// on temporal behavior" (Damaggio, Deutsch, Zhou; SIGMOD 2011).
//
// Service contracts (airfares, insurance policies, warranties, SLAs)
// are published as sets of declarative Linear Temporal Logic clauses
// over a shared event vocabulary. Consumers query the database with an
// LTL property; the broker returns every contract that *permits* the
// query — that allows at least one sequence of events which uses only
// events the contract explicitly cites and satisfies the query. The
// vocabulary restriction is the paper's key semantic choice: a
// contract that is silent about an event never matches a query that
// needs it, so publishers cannot game the system with under-specified
// contracts.
//
// # Quick start
//
//	broker, err := contracts.NewBroker([]string{
//		"purchase", "use", "missedFlight", "refund", "dateChange",
//	}, contracts.Options{})
//	...
//	_, err = broker.RegisterLTL("TicketB",
//		"G(missedFlight -> !F dateChange)")
//	...
//	res, err := broker.QueryLTL("F(missedFlight && X F refund)")
//	for _, c := range res.Matches {
//		fmt.Println(c.Name, "permits the query")
//	}
//
// # LTL syntax
//
// Formulas use Go-ish operators: ! && || -> <-> plus the temporal
// operators X (next), F (eventually), G (globally), U (until),
// W (weak until), B (before, ϕBψ ≡ ¬(¬ϕ U ψ)) and R (release).
// Event names are identifiers; the single letters X F G U W B R are
// reserved.
//
// # Performance model
//
// Registration is the expensive step (automaton construction,
// prefilter indexing, bisimulation projections); queries are fast and
// safe for concurrent use. Both of the paper's optimizations are
// enabled by default and can be toggled per query via QueryMode for
// measurement.
//
// # Persistence
//
// (*Broker).Save writes the broker, precomputed artifacts included, as
// a format-v4 snapshot container — the same bytes the daemon
// checkpoints for the same contracts — and Load adopts it back without
// redoing registration. Every v4 snapshot loads; the pre-v4 gob
// formats are refused with ErrUnsupportedFormat.
package contracts

import (
	"fmt"
	"io"

	"contractdb/internal/core"
	"contractdb/internal/ltl"
	"contractdb/internal/vocab"
)

// Broker is a queryable database of temporal contracts. All methods
// are safe for concurrent use.
type Broker = core.DB

// Contract is a registered contract and its precomputed artifacts.
type Contract = core.Contract

// ContractID identifies a contract within a broker.
type ContractID = core.ContractID

// Options configure registration-time precomputation; the zero value
// selects the defaults used in the paper-reproduction experiments.
type Options = core.Options

// Mode selects the optimizations used by a single query evaluation;
// see Optimized and Unoptimized.
type Mode = core.Mode

// Result is a query answer: permitting contracts plus evaluation
// statistics.
type Result = core.Result

// QueryStats describes the work a query evaluation performed.
type QueryStats = core.QueryStats

// RegistrationStats reports accumulated offline (registration-time)
// costs.
type RegistrationStats = core.RegistrationStats

// Witness is a concrete event sequence demonstrating a permission
// verdict, produced by (*Broker).Explain / ExplainLTL.
type Witness = core.Witness

// Formula is a parsed LTL specification.
type Formula = ltl.Expr

// Optimization modes for Broker.QueryMode.
var (
	// Optimized enables both the prefilter index (§4) and the
	// bisimulation projections (§5). This is the default for Query.
	Optimized = core.Optimized
	// Unoptimized scans every contract with its full automaton — the
	// paper's baseline system.
	Unoptimized = core.Unoptimized
)

// MaxEvents is the largest vocabulary a broker supports.
const MaxEvents = vocab.MaxEvents

// NewBroker creates an empty broker over the given event vocabulary.
// Events not listed here may still appear in later specifications;
// they are added to the vocabulary on first use, up to MaxEvents.
func NewBroker(events []string, opts Options) (*Broker, error) {
	voc, err := vocab.FromNames(events...)
	if err != nil {
		return nil, fmt.Errorf("contracts: %w", err)
	}
	return core.NewDB(voc, opts), nil
}

// Load restores a broker previously written with (*Broker).Save,
// including all precomputed artifacts. Bytes that are not a format-v4
// snapshot fail with ErrUnsupportedFormat.
func Load(r io.Reader) (*Broker, error) {
	return core.Load(r)
}

// ParseLTL parses a formula in the package's LTL syntax.
func ParseLTL(src string) (*Formula, error) {
	return ltl.Parse(src)
}

// MustParseLTL is ParseLTL, panicking on error. For fixed formulas in
// tests and examples.
func MustParseLTL(src string) *Formula {
	return ltl.MustParse(src)
}

// Conjoin folds clauses into a single specification: contracts are
// typically published as a list of independent declarative clauses
// that must all hold.
func Conjoin(clauses ...*Formula) *Formula {
	return ltl.ConjoinAll(clauses...)
}

// Obligation queries — the deontic dual of permission — are available
// through (*Broker).QueryObligation and QueryObligationLTL: they
// return the contracts that *guarantee* a property (every allowed
// behavior satisfies it), rather than merely allowing it. For
// example, only a strictly non-refundable fare obliges "G !refund".

// Abort sentinels returned by context- and budget-bounded queries
// ((*Broker).QueryCtx / QueryModeCtx with Mode.StepBudget); match
// with errors.Is.
var (
	// ErrCanceled reports a query aborted by its context before the
	// candidate scan completed.
	ErrCanceled = core.ErrCanceled
	// ErrBudgetExceeded reports a query aborted because a candidate
	// check exhausted its kernel step budget.
	ErrBudgetExceeded = core.ErrBudgetExceeded
)

// ErrUnsupportedFormat is returned by Load for bytes that are not a
// format-v4 snapshot, such as the gob snapshots older builds wrote.
var ErrUnsupportedFormat = core.ErrUnsupportedFormat

// DBStats combines the broker's offline registration counters with
// its online query metrics, as returned by (*Broker).Stats.
type DBStats = core.DBStats
