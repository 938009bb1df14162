package proto

import "testing"

// The protocol ranges are the system's wire contract: collisions between
// subsystem message types would misroute requests. Every IPC trace event
// records the message number, so each type is pinned to its number too:
// retiring a type must leave a blank in its place, not shift the types
// after it (101, 202, 706-707 and 805-809 are such blanks).
func TestMessageTypeUniqueness(t *testing.T) {
	types := map[int32]string{}
	for _, tc := range []struct {
		name string
		v    int32
		want int32
	}{
		{"PMExitEvent", PMExitEvent, 100},
		{"PMSubscribe", PMSubscribe, 102},
		{"PMAck", PMAck, 103},

		{"DSPublish", DSPublish, 200},
		{"DSWithdraw", DSWithdraw, 201},
		{"DSSubscribe", DSSubscribe, 203},
		{"DSUpdate", DSUpdate, 204},
		{"DSStore", DSStore, 205},
		{"DSRetrieve", DSRetrieve, 206},
		{"DSAck", DSAck, 207},
		{"DSFailover", DSFailover, 208},

		{"RSPing", RSPing, 300},
		{"RSPong", RSPong, 301},
		{"RSRestart", RSRestart, 302},
		{"RSStop", RSStop, 303},
		{"RSUpdate", RSUpdate, 304},
		{"RSComplain", RSComplain, 305},
		{"RSReboot", RSReboot, 306},
		{"RSAck", RSAck, 307},
		{"RSPromote", RSPromote, 308},
		{"RSMicroAsk", RSMicroAsk, 309},
		{"RSMicroDone", RSMicroDone, 310},

		{"EthConf", EthConf, 400},
		{"EthSend", EthSend, 401},
		{"EthRecv", EthRecv, 402},
		{"EthAck", EthAck, 403},

		{"BdevOpen", BdevOpen, 500},
		{"BdevRead", BdevRead, 501},
		{"BdevWrite", BdevWrite, 502},
		{"BdevReply", BdevReply, 503},

		{"ChrOpen", ChrOpen, 600},
		{"ChrWrite", ChrWrite, 601},
		{"ChrRead", ChrRead, 602},
		{"ChrIoctl", ChrIoctl, 603},
		{"ChrReply", ChrReply, 604},

		{"TCPConnect", TCPConnect, 700},
		{"TCPListen", TCPListen, 701},
		{"TCPAccept", TCPAccept, 702},
		{"TCPSend", TCPSend, 703},
		{"TCPRecv", TCPRecv, 704},
		{"TCPClose", TCPClose, 705},
		{"SockReply", SockReply, 708},

		{"FSOpen", FSOpen, 800},
		{"FSRead", FSRead, 801},
		{"FSWrite", FSWrite, 802},
		{"FSClose", FSClose, 803},
		{"FSCreate", FSCreate, 804},
		{"FSIoctl", FSIoctl, 810},
		{"FSReply", FSReply, 811},
	} {
		if tc.v != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.v, tc.want)
		}
		if prev, dup := types[tc.v]; dup {
			t.Errorf("message type collision: %s and %s are both %d", prev, tc.name, tc.v)
		}
		types[tc.v] = tc.name
	}
}

func TestErrorCodesNegative(t *testing.T) {
	for name, v := range map[string]int64{
		"ErrNotFound": ErrNotFound, "ErrPerm": ErrPerm, "ErrIO": ErrIO,
		"ErrBadCall": ErrBadCall, "ErrAgain": ErrAgain, "ErrClosed": ErrClosed,
		"ErrExist": ErrExist, "ErrNoSpace": ErrNoSpace,
	} {
		if v >= 0 {
			t.Errorf("%s = %d, must be negative", name, v)
		}
	}
	if OK != 0 {
		t.Errorf("OK = %d", OK)
	}
}
