package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// Flatten expands all subcircuit calls recursively, producing a circuit
// containing only primitive elements. Internal subckt nodes and element
// names are prefixed with the instance path ("x1.n3"), element value
// expressions are evaluated against the merged parameter scope (global
// design variables, subckt defaults, instance overrides), and subckt-local
// models are promoted into the flat model namespace.
func Flatten(c *Circuit) (*Circuit, error) {
	flat := NewCircuit(c.Title)
	flat.Temp = c.Temp
	for k, v := range c.Params {
		flat.Params[k] = v
	}
	for k, v := range c.Options {
		flat.Options[k] = v
	}
	for k, v := range c.Models {
		flat.Models[k] = v
	}
	for k, v := range c.NodeSet {
		flat.NodeSet[k] = v
	}
	expanded := 0
	for _, e := range c.Elems {
		if err := expand(flat, c, e, "", nil, c.Params, 0, &expanded); err != nil {
			return nil, err
		}
	}
	return flat, nil
}

const maxDepth = 50

// maxExpanded bounds how many element instances subckt calls may expand
// into. Nesting multiplies: thirty levels that each call the level below
// twice turn a 1 kB deck into 2^30 elements, which would run Flatten
// until memory runs out.
const maxExpanded = 1 << 18

// expand emits element e into flat. prefix is the instance path ("x1." or
// ""), portMap translates subckt-internal node names, and scope is the
// parameter environment for expression evaluation. expanded counts the
// instances emitted below the top level so far.
func expand(flat, top *Circuit, e *Element, prefix string, portMap map[string]string, scope map[string]float64, depth int, expanded *int) error {
	if depth > maxDepth {
		return fmt.Errorf("netlist: subckt nesting deeper than %d (recursive subckts?)", maxDepth)
	}
	if depth > 0 {
		if *expanded++; *expanded > maxExpanded {
			return fmt.Errorf("netlist: subckt calls expand to more than %d elements", maxExpanded)
		}
	}
	mapNode := func(n string) string {
		if portMap != nil {
			if m, ok := portMap[n]; ok {
				return m
			}
		}
		if IsGround(n) {
			return "0"
		}
		if portMap == nil {
			return n // top level: keep name
		}
		return prefix + n // internal node
	}

	if e.Type != Subcall {
		ne := &Element{
			Name:       prefix + e.Name,
			Type:       e.Type,
			Value:      e.Value,
			ValueExpr:  e.ValueExpr,
			Model:      e.Model,
			Ctrl:       e.Ctrl,
			ParamExprs: e.ParamExprs,
			srcTokens:  e.srcTokens,
		}
		if e.Src != nil {
			// Deep copy so post-flatten edits (e.g. the tool's AC
			// auto-zeroing) never mutate the source circuit.
			src := *e.Src
			ne.Src = &src
		}
		for _, n := range e.Nodes {
			ne.Nodes = append(ne.Nodes, mapNode(n))
		}
		if e.Ctrl != "" {
			// The controlling source must live in the same subckt scope.
			ne.Ctrl = prefix + e.Ctrl
		}
		if e.Params != nil {
			ne.Params = map[string]float64{}
			for k, v := range e.Params {
				ne.Params[k] = v
			}
		}
		if err := evalElement(ne, scope); err != nil {
			return err
		}
		flat.Add(ne)
		return nil
	}

	// Subcircuit call.
	sub, ok := top.Subckts[strings.ToLower(e.Model)]
	if !ok {
		return fmt.Errorf("netlist: %q references missing subckt %q", e.Name, e.Model)
	}
	if len(e.Nodes) != len(sub.Ports) {
		return fmt.Errorf("netlist: %q has %d connections, subckt %q wants %d",
			e.Name, len(e.Nodes), sub.Name, len(sub.Ports))
	}
	// Build child scope: globals, then subckt defaults, then overrides.
	child := map[string]float64{}
	for k, v := range scope {
		child[k] = v
	}
	for k, expr := range sub.ParamExprs {
		v, err := EvalExpr(expr, scope)
		if err != nil {
			return fmt.Errorf("netlist: subckt %s param %s: %v", sub.Name, k, err)
		}
		child[k] = v
	}
	// Instance overrides: raw exprs evaluated in the caller's scope.
	for k, expr := range e.ParamExprs {
		v, err := EvalExpr(expr, scope)
		if err != nil {
			return fmt.Errorf("netlist: %s param %s: %v", e.Name, k, err)
		}
		child[k] = v
	}
	for k, v := range e.Params {
		child[k] = v
	}
	// Port mapping: subckt port name -> caller node (already mapped).
	pm := map[string]string{}
	for i, port := range sub.Ports {
		pm[port] = mapNode(e.Nodes[i])
	}
	childPrefix := prefix + strings.ToLower(e.Name) + "."
	// Promote subckt-local models.
	for name, m := range sub.Models {
		if existing, ok := flat.Models[name]; ok && existing != m {
			flat.Models[childPrefix+name] = m
		} else {
			flat.Models[name] = m
		}
	}
	for _, se := range sub.Elems {
		if err := expand(flat, top, se, childPrefix, pm, child, depth+1, expanded); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the circuit back as netlist text (primitive elements
// only; subckt definitions are not reproduced). It is used for annotation
// output and golden tests.
func Format(c *Circuit) string {
	var sb strings.Builder
	sb.WriteString(c.Title + "\n")
	for _, e := range c.Elems {
		sb.WriteString(formatElement(e) + "\n")
	}
	for _, m := range sortedModels(c.Models) {
		sb.WriteString(fmt.Sprintf(".model %s %s", m.Name, m.Type))
		for _, k := range sortedKeys(m.Params) {
			sb.WriteString(fmt.Sprintf(" %s=%g", k, m.Params[k]))
		}
		sb.WriteString("\n")
	}
	sb.WriteString(".end\n")
	return sb.String()
}

func formatElement(e *Element) string {
	parts := []string{e.Name}
	parts = append(parts, e.Nodes...)
	switch e.Type {
	case CCCS, CCVS:
		parts = append(parts, e.Ctrl, fmt.Sprintf("%g", e.Value))
	case Diode, BJT, MOSFET:
		parts = append(parts, e.Model)
	case VSource, ISource:
		if e.Src != nil {
			parts = append(parts, fmt.Sprintf("dc %g", e.Src.DC))
			if e.Src.ACMag != 0 {
				parts = append(parts, fmt.Sprintf("ac %g %g", e.Src.ACMag, e.Src.ACPhase))
			}
		}
	default:
		parts = append(parts, fmt.Sprintf("%g", e.Value))
	}
	for _, k := range sortedKeys(e.Params) {
		parts = append(parts, fmt.Sprintf("%s=%g", k, e.Params[k]))
	}
	return strings.Join(parts, " ")
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedModels(m map[string]*Model) []*Model {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Model, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
