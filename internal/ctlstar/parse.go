package ctlstar

import (
	"fmt"
	"strings"

	"repro/internal/ctl"
)

// Parse reads the concrete fragment syntax
//
//	E (GF p | FG q) & (GF (r & s)) & ...
//
// The text after an optional leading 'E' is one CTL* path formula of
// the shared grammar (ctl.ParsePath): its conjuncts are the clauses and
// the disjuncts of a clause its terms. A term is GF or FG over a CTL
// state formula; GF and FG bind tighter than the connectives, so
// parenthesize compound arguments.
func Parse(src string) (Formula, error) {
	s := strings.TrimSpace(src)
	if strings.HasPrefix(s, "E ") || strings.HasPrefix(s, "E(") {
		s = s[1:]
	}
	pf, err := ctl.ParsePath(s)
	if err != nil {
		return nil, fmt.Errorf("ctlstar: %w", err)
	}
	var f Formula
	for _, c := range operands(pf, ctl.KAnd, nil) {
		var cl Clause
		for _, t := range operands(c, ctl.KOr, nil) {
			term, err := termOf(t)
			if err != nil {
				return nil, err
			}
			cl = append(cl, term)
		}
		f = append(f, cl)
	}
	return f, nil
}

// MustParse is Parse, panicking on error.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// operands appends to out, left to right, the operands of the tree of
// kind-k nodes rooted at f.
func operands(f *ctl.Formula, k ctl.Kind, out []*ctl.Formula) []*ctl.Formula {
	if f.Kind != k {
		return append(out, f)
	}
	return operands(f.R, k, operands(f.L, k, out))
}

// termOf reads G F p as the term GF p and F G q as FG q.
func termOf(f *ctl.Formula) (Term, error) {
	gf := f.Kind == ctl.KG && f.L.Kind == ctl.KF
	if !gf && (f.Kind != ctl.KF || f.L.Kind != ctl.KG) {
		return Term{}, fmt.Errorf("ctlstar: term %s is not GF or FG of a state formula", f)
	}
	arg := f.L.L
	if !ctl.IsCTL(arg) {
		return Term{}, fmt.Errorf("ctlstar: term %s: %s is not a CTL state formula", f, arg)
	}
	return Term{GF: gf, Arg: arg}, nil
}
