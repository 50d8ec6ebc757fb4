package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestANDRule(t *testing.T) {
	tests := []struct {
		name string
		bits []bool
		want bool
	}{
		{name: "all accept", bits: []bool{true, true, true}, want: true},
		{name: "one reject", bits: []bool{true, false, true}, want: false},
		{name: "all reject", bits: []bool{false, false}, want: false},
		{name: "single accept", bits: []bool{true}, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ANDRule{}.Decide(tt.bits)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("AND(%v) = %v", tt.bits, got)
			}
		})
	}
	if _, err := (ANDRule{}).Decide(nil); err == nil {
		t.Error("AND of zero bits accepted")
	}
}

func TestORRule(t *testing.T) {
	got, err := ORRule{}.Decide([]bool{false, false, true})
	if err != nil || !got {
		t.Errorf("OR = %v, %v", got, err)
	}
	got, err = ORRule{}.Decide([]bool{false, false})
	if err != nil || got {
		t.Errorf("OR all-false = %v, %v", got, err)
	}
	if _, err := (ORRule{}).Decide(nil); err == nil {
		t.Error("OR of zero bits accepted")
	}
}

func TestThresholdRule(t *testing.T) {
	bits := []bool{false, false, true, true, true} // 2 rejections
	tests := []struct {
		T    int
		want bool
	}{
		{T: 1, want: false}, // >= 1 rejection -> reject
		{T: 2, want: false},
		{T: 3, want: true}, // only 2 rejections < 3
		{T: 5, want: true},
	}
	for _, tt := range tests {
		got, err := ThresholdRule{T: tt.T}.Decide(bits)
		if err != nil {
			t.Fatal(err)
		}
		if got != tt.want {
			t.Errorf("T=%d: got %v, want %v", tt.T, got, tt.want)
		}
	}
	if _, err := (ThresholdRule{T: 0}).Decide(bits); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := (ThresholdRule{T: 1}).Decide(nil); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestThresholdRuleT1EqualsAND(t *testing.T) {
	prop := func(raw uint8, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = raw&(1<<uint(i)) != 0
		}
		a, errA := ANDRule{}.Decide(bits)
		b, errB := ThresholdRule{T: 1}.Decide(bits)
		return errA == nil && errB == nil && a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMajorityRule(t *testing.T) {
	got, err := MajorityRule{}.Decide([]bool{true, true, false})
	if err != nil || !got {
		t.Errorf("majority accept case = %v, %v", got, err)
	}
	got, err = MajorityRule{}.Decide([]bool{true, false, false})
	if err != nil || got {
		t.Errorf("majority reject case = %v, %v", got, err)
	}
	// Even split: 2 rejections out of 4, threshold is 3 -> accept.
	got, err = MajorityRule{}.Decide([]bool{true, true, false, false})
	if err != nil || !got {
		t.Errorf("tie case = %v, %v", got, err)
	}
	if _, err := (MajorityRule{}).Decide(nil); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestFuncRule(t *testing.T) {
	xor := FuncRule{F: func(bits []bool) bool {
		v := false
		for _, b := range bits {
			v = v != b
		}
		return v
	}, Label: "xor"}
	got, err := xor.Decide([]bool{true, false, true})
	if err != nil || got {
		t.Errorf("xor = %v, %v", got, err)
	}
	if xor.Name() != "xor" {
		t.Errorf("name = %q", xor.Name())
	}
	if (FuncRule{F: func([]bool) bool { return true }}).Name() != "func" {
		t.Error("default name wrong")
	}
	if _, err := (FuncRule{}).Decide([]bool{true}); err == nil {
		t.Error("nil function accepted")
	}
	if _, err := xor.Decide(nil); err == nil {
		t.Error("zero bits accepted")
	}
}

func TestRuleNames(t *testing.T) {
	if (ANDRule{}).Name() != "and" || (ORRule{}).Name() != "or" || (MajorityRule{}).Name() != "majority" {
		t.Error("rule names wrong")
	}
	if (ThresholdRule{T: 7}).Name() != "threshold(T=7)" {
		t.Errorf("threshold name = %q", (ThresholdRule{T: 7}).Name())
	}
}

func TestBitReferee(t *testing.T) {
	ref := BitReferee{Rule: ANDRule{}}
	got, err := ref.Decide([]Message{1, 1, 3}) // bit 0 set on all
	if err != nil || !got {
		t.Errorf("referee = %v, %v", got, err)
	}
	got, err = ref.Decide([]Message{1, 2}) // 2 has bit 0 clear
	if err != nil || got {
		t.Errorf("referee with reject = %v, %v", got, err)
	}
	if _, err := (BitReferee{}).Decide([]Message{1}); err == nil {
		t.Error("nil rule accepted")
	}
}

// TestBitRefereeMatchesRule is the differential test of BitReferee's
// decide, which counts the rejections of a stock rule, against the
// rule's own Decide over the messages' bits: for k from 0 to 10, every
// one of the 2^k accept/reject patterns, with random bits above bit 0 in
// every message, under AND, OR, majority, a FuncRule and ThresholdRule{T}
// for T from -1 to k+2, the verdicts must agree, and so must whether
// the decide errors. A nil rule errors.
func TestBitRefereeMatchesRule(t *testing.T) {
	rng := rand.New(rand.NewPCG(28, 0xb175))
	// A rule no count decides: accept iff player 0 accepts or an odd
	// number of players do.
	oddOrFirst := FuncRule{Label: "odd-or-first", F: func(bits []bool) bool {
		odd := false
		for _, b := range bits {
			odd = odd != b
		}
		return bits[0] || odd
	}}
	for k := 0; k <= 10; k++ {
		rules := []DecisionRule{ANDRule{}, ORRule{}, MajorityRule{}, oddOrFirst}
		for T := -1; T <= k+2; T++ {
			rules = append(rules, ThresholdRule{T: T})
		}
		msgs, bits := make([]Message, k), make([]bool, k)
		for pattern := 0; pattern < 1<<k; pattern++ {
			for i := range msgs {
				bits[i] = pattern>>i&1 == 1
				msgs[i] = Message(rng.Uint64())&^1 | Message(pattern>>i&1)
			}
			for _, rule := range rules {
				want, wantErr := rule.Decide(bits)
				got, err := BitReferee{Rule: rule}.Decide(msgs)
				if got != want || (err == nil) != (wantErr == nil) {
					t.Fatalf("%s over %d messages %#x: BitReferee = (%v, %v), rule over bits = (%v, %v)",
						rule.Name(), k, msgs, got, err, want, wantErr)
				}
			}
		}
	}
	for _, msgs := range [][]Message{nil, {1}, {0, 1}} {
		if _, err := (BitReferee{}).Decide(msgs); err == nil {
			t.Errorf("nil rule decided %d messages", len(msgs))
		}
	}
}

// TestBitRefereeDecideAllocs: BitReferee decides the four stock rules
// by counting, so a decide over 4,096 messages allocates nothing.
func TestBitRefereeDecideAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	msgs := make([]Message, 4096)
	for i := range msgs {
		msgs[i] = Message(i * 7 % 5)
	}
	for _, rule := range []DecisionRule{ANDRule{}, ORRule{}, MajorityRule{}, ThresholdRule{T: 1000}} {
		var ref Referee = BitReferee{Rule: rule}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := ref.Decide(msgs); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: deciding %d messages allocates %.1f, want 0", rule.Name(), len(msgs), allocs)
		}
	}
}

func TestMessageBit(t *testing.T) {
	if !Accept.Bit() || Reject.Bit() {
		t.Error("accept/reject bit conventions broken")
	}
	if !Message(0xFF).Bit() || Message(0xFE).Bit() {
		t.Error("bit reads more than bit 0")
	}
}
