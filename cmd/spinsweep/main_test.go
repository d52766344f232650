package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/exp"
)

// parse registers the sweep flags on a fresh set, parses args and returns
// the requests they name.
func parse(t *testing.T, args ...string) ([]exp.Options, error) {
	t.Helper()
	var o exp.Options
	fs := flag.NewFlagSet("spinsweep", flag.ContinueOnError)
	register(fs, &o)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return requests(o)
}

// TestFlagsRefuseWhatTheAPIRefuses: the flags fill in the request
// /v1/sweep decodes and it is validated as the endpoint validates a body,
// for one figure and for every figure of -fig all, before anything runs.
func TestFlagsRefuseWhatTheAPIRefuses(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "7", "-cycles", "-5"},
		{"-fig", "7", "-telemetry", "-epoch", "-3"},
		{"-fig", "8b", "-cycles", "100", "-warmup", "200"},
		{"-cycles", "100", "-warmup", "200"}, // -fig all
		{"-fig", "nope"},
	} {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%s accepted", strings.Join(args, " "))
		}
	}
}

// TestFlagsAreTheRequestBody: a valid flag set names, byte for byte, the
// request the JSON body /v1/sweep would get, and -fig all one per figure.
func TestFlagsAreTheRequestBody(t *testing.T) {
	reqs, err := parse(t, "-fig", "7", "-cycles", "2000", "-seed", "42", "-full", "-check", "-telemetry", "-warmup", "-3", "-workers", "2")
	if err != nil || len(reqs) != 1 {
		t.Fatalf("requests = %v, %v", reqs, err)
	}
	body, err := exp.DecodeSweepRequest(strings.NewReader(`{"fig":"7","cycles":2000,"warmup":-1,"full":true,"seed":42,"check":true,"telemetry":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := body.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := reqs[0].Canonical(), body.Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("flags name %s, the body %s", got, want)
	}

	all, err := parse(t, "-cycles", "300")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(exp.SweepIDs()) {
		t.Fatalf("-fig all names %d sweeps, want %d", len(all), len(exp.SweepIDs()))
	}
	for i, id := range exp.SweepIDs() {
		if all[i].Fig != id || all[i].Cycles != 300 {
			t.Errorf("-fig all request %d = %+v, want fig %s at 300 cycles", i, all[i], id)
		}
	}
}
